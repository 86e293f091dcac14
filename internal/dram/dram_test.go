package dram

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	if err := LPDDR3_1600_4Gb().Validate(); err != nil {
		t.Fatalf("preset geometry invalid: %v", err)
	}
	bad := LPDDR3_1600_4Gb()
	bad.Banks = 0
	if bad.Validate() == nil {
		t.Fatal("zero banks should be invalid")
	}
}

func TestPresetCapacity(t *testing.T) {
	g := LPDDR3_1600_4Gb()
	// 8 banks * 32 subarrays * 1024 rows * 2 KB rows = 512 MiB = 4 Gb.
	want := int64(512) << 20
	if g.ChipCapacityBytes() != want {
		t.Fatalf("chip capacity = %d, want %d (4 Gb)", g.ChipCapacityBytes(), want)
	}
	if row := g.Columns * g.ColumnBytes; row != 2048 {
		t.Fatalf("row size = %d, want 2048", row)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	g := SmallTestGeometry()
	total := g.TotalColumns()
	for idx := int64(0); idx < total; idx++ {
		c := g.Decode(idx)
		if !c.Valid(g) {
			t.Fatalf("decoded coord %v invalid", c)
		}
		back := g.Encode(c)
		if back != idx {
			t.Fatalf("roundtrip failed: %d -> %v -> %d", idx, c, back)
		}
	}
}

func TestEncodeOrderingIsColumnMajorWithinRow(t *testing.T) {
	g := SmallTestGeometry()
	c0 := Coord{0, 0, 0, 0, 0, 0, 0}
	c1 := Coord{0, 0, 0, 0, 0, 0, 1}
	if g.Encode(c1) != g.Encode(c0)+1 {
		t.Fatal("consecutive columns of a row must be consecutive linear indices")
	}
	// Next row starts right after the last column of the previous row.
	rEnd := Coord{0, 0, 0, 0, 0, 0, g.Columns - 1}
	rNext := Coord{0, 0, 0, 0, 0, 1, 0}
	if g.Encode(rNext) != g.Encode(rEnd)+1 {
		t.Fatal("rows must be contiguous in the linear space")
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	g := SmallTestGeometry()
	defer func() {
		if recover() == nil {
			t.Fatal("Decode out of range should panic")
		}
	}()
	g.Decode(g.TotalColumns())
}

func TestEncodePanicsInvalidCoord(t *testing.T) {
	g := SmallTestGeometry()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of invalid coord should panic")
		}
	}()
	g.Encode(Coord{Channel: g.Channels})
}

// Linear must map the subarrays one-to-one onto [0, SubarrayCount()).
func TestSubarrayLinearRoundtrip(t *testing.T) {
	g := SmallTestGeometry()
	n := g.SubarrayCount()
	seen := make([]bool, n)
	for ch := 0; ch < g.Channels; ch++ {
		for ra := 0; ra < g.Ranks; ra++ {
			for cp := 0; cp < g.Chips; cp++ {
				for ba := 0; ba < g.Banks; ba++ {
					for su := 0; su < g.Subarrays; su++ {
						id := SubarrayID{ch, ra, cp, ba, su}
						lin := id.Linear(g)
						if lin < 0 || lin >= n {
							t.Fatalf("linear %d out of range", lin)
						}
						if seen[lin] {
							t.Fatalf("linear %d assigned twice", lin)
						}
						seen[lin] = true
					}
				}
			}
		}
	}
}

func TestCoordSubarrayAndBank(t *testing.T) {
	c := Coord{1, 0, 1, 2, 3, 4, 5}
	sa := c.SubarrayOf()
	if sa != (SubarrayID{1, 0, 1, 2, 3}) {
		t.Fatalf("SubarrayOf = %v", sa)
	}
	if c.BankOf() != (BankID{1, 0, 1, 2}) {
		t.Fatal("BankOf mismatch")
	}
}

func TestGlobalRow(t *testing.T) {
	g := SmallTestGeometry()
	c := Coord{0, 0, 0, 0, 2, 3, 0}
	if c.GlobalRow(g) != 2*g.Rows+3 {
		t.Fatalf("GlobalRow = %d", c.GlobalRow(g))
	}
}

func TestBankLinearDense(t *testing.T) {
	g := SmallTestGeometry()
	n := g.BankCount()
	seen := make([]bool, n)
	for ch := 0; ch < g.Channels; ch++ {
		for ra := 0; ra < g.Ranks; ra++ {
			for cp := 0; cp < g.Chips; cp++ {
				for ba := 0; ba < g.Banks; ba++ {
					lin := BankID{ch, ra, cp, ba}.Linear(g)
					if lin < 0 || lin >= n || seen[lin] {
						t.Fatalf("bank linear %d invalid or duplicate", lin)
					}
					seen[lin] = true
				}
			}
		}
	}
}

func TestTimingValidate(t *testing.T) {
	if err := NominalTiming().Validate(); err != nil {
		t.Fatalf("nominal timing invalid: %v", err)
	}
	bad := NominalTiming()
	bad.TRAS = bad.TRCD - 1
	if bad.Validate() == nil {
		t.Fatal("tRAS < tRCD should be invalid")
	}
	bad2 := NominalTiming()
	bad2.TCK = 0
	if bad2.Validate() == nil {
		t.Fatal("zero tCK should be invalid")
	}
}

func TestCommandString(t *testing.T) {
	for k, want := range map[CommandKind]string{
		CmdACT: "ACT", CmdRD: "RD", CmdWR: "WR", CmdPRE: "PRE", CmdREF: "REF",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCoordString(t *testing.T) {
	c := Coord{1, 2, 3, 4, 5, 6, 7}
	if c.String() != "ch1.ra2.cp3.ba4.su5.ro6.co7" {
		t.Fatalf("String = %q", c.String())
	}
}

// Property: Encode is a bijection on valid coordinates (injectivity checked
// via roundtrip on random indices of the large preset geometry).
func TestEncodeDecodePropertyLargeGeometry(t *testing.T) {
	g := LPDDR3_1600_4Gb()
	total := g.TotalColumns()
	f := func(seed uint64) bool {
		idx := int64(seed % uint64(total))
		return g.Encode(g.Decode(idx)) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTotalColumnsConsistent(t *testing.T) {
	g := SmallTestGeometry()
	if g.TotalColumns()*int64(g.ColumnBytes) != g.TotalCapacityBytes() {
		t.Fatal("TotalColumns * ColumnBytes must equal TotalCapacityBytes")
	}
}
