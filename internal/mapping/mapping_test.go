package mapping

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"sparkxd/internal/dram"
	"sparkxd/internal/memctrl"
)

func TestUnitsFor(t *testing.T) {
	if UnitsFor(64, 32) != 2 || UnitsFor(65, 32) != 3 || UnitsFor(1, 32) != 1 {
		t.Fatal("UnitsFor rounding wrong")
	}
}

func TestBaselineSequentialWithinBank(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, err := Baseline(g, 3*g.Columns)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// First row fills columns 0..Columns-1 of row 0, then row 1.
	for u := 0; u < g.Columns; u++ {
		c := l.CoordOf(u)
		if c.Row != 0 || c.Column != u || c.Bank != 0 || c.Subarray != 0 {
			t.Fatalf("unit %d at %v, want su0 ro0 co%d", u, c, u)
		}
	}
	if l.CoordOf(g.Columns).Row != 1 {
		t.Fatal("baseline must advance to the next row of the same subarray")
	}
	if l.BanksUsed() != 1 {
		t.Fatal("small baseline image must stay in one bank")
	}
}

func TestBaselineSpillsToNextBank(t *testing.T) {
	g := dram.SmallTestGeometry()
	perBank := g.Subarrays * g.Rows * g.Columns
	l, err := Baseline(g, perBank+1)
	if err != nil {
		t.Fatal(err)
	}
	last := l.CoordOf(perBank)
	if last.Bank != 1 || last.Subarray != 0 || last.Row != 0 || last.Column != 0 {
		t.Fatalf("bank spill went to %v", last)
	}
}

func TestBaselineRejectsOversize(t *testing.T) {
	g := dram.SmallTestGeometry()
	if _, err := Baseline(g, int(g.TotalColumns())+1); err == nil {
		t.Fatal("oversize image must error")
	}
	if _, err := Baseline(g, -1); err == nil {
		t.Fatal("negative units must error")
	}
}

func TestSparkXDInterleavesBanks(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, err := SparkXD(g, 4*g.Columns, AllSafe(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Units fill a full row in bank 0, then the same row in bank 1, ...
	first := l.CoordOf(0)
	second := l.CoordOf(g.Columns)
	if first.Bank != 0 || second.Bank != 1 {
		t.Fatalf("expected bank advance after one row: %v then %v", first, second)
	}
	if second.Row != first.Row || second.Subarray != first.Subarray {
		t.Fatal("bank advance must keep the same row and subarray index")
	}
	if l.BanksUsed() != 4 {
		t.Fatalf("BanksUsed = %d, want 4", l.BanksUsed())
	}
}

func TestSparkXDSkipsUnsafeSubarrays(t *testing.T) {
	g := dram.SmallTestGeometry()
	safe := AllSafe(g)
	// Mark subarray 0 of every bank of chip 0/rank 0/channel 0 unsafe.
	for ba := 0; ba < g.Banks; ba++ {
		id := dram.SubarrayID{Bank: ba, Subarray: 0}
		safe[id.Linear(g)] = false
	}
	l, err := SparkXD(g, 2*g.Columns, safe)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < l.Units(); u++ {
		c := l.CoordOf(u)
		if c.Channel == 0 && c.Rank == 0 && c.Chip == 0 && c.Subarray == 0 {
			t.Fatalf("unit %d placed in unsafe subarray: %v", u, c)
		}
	}
}

func TestSparkXDInsufficientCapacity(t *testing.T) {
	g := dram.SmallTestGeometry()
	safe := make([]bool, g.SubarrayCount()) // nothing safe
	safe[0] = true
	oneSub := g.Rows * g.Columns
	if _, err := SparkXD(g, oneSub, safe); err != nil {
		t.Fatalf("exactly one subarray of data should fit: %v", err)
	}
	_, err := SparkXD(g, oneSub+1, safe)
	if !errors.Is(err, ErrInsufficientSafeCapacity) {
		t.Fatalf("want ErrInsufficientSafeCapacity, got %v", err)
	}
}

func TestSparkXDRejectsBadSafeLength(t *testing.T) {
	g := dram.SmallTestGeometry()
	if _, err := SparkXD(g, 1, make([]bool, 3)); err == nil {
		t.Fatal("wrong safe length must error")
	}
}

func TestLayoutValidateCatchesDuplicates(t *testing.T) {
	g := dram.SmallTestGeometry()
	l := &Layout{Geom: g, unitBytes: g.ColumnBytes, units: 2 * g.Columns,
		rows: []dram.Coord{{}, {}}}
	if l.Validate() == nil {
		t.Fatal("duplicate coords must fail validation")
	}
	l.rows[1] = dram.Coord{Row: 1, Column: 1}
	if l.Validate() == nil {
		t.Fatal("a row that does not start at column 0 must fail validation")
	}
	l.rows = l.rows[:1]
	if l.Validate() == nil {
		t.Fatal("a row table shorter than the units must fail validation")
	}
}

// The headline behavioural claim: replaying the SparkXD stream achieves a
// hit rate at least as high as baseline and is not slower (Fig. 12(b)).
func TestSparkXDStreamNotSlowerThanBaseline(t *testing.T) {
	g := dram.SmallTestGeometry()
	tm := dram.NominalTiming()
	units := 6 * g.Columns * g.Banks // several rows per bank

	base, err := Baseline(g, units)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := SparkXD(g, units, AllSafe(g))
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := memctrl.New(g, tm)
	cs, _ := memctrl.New(g, tm)
	sb := cb.ReplayReads(base.AccessStream())
	ss := cs.ReplayReads(spark.AccessStream())

	if ss.TotalNs > sb.TotalNs {
		t.Errorf("sparkxd stream slower: %v ns vs baseline %v ns", ss.TotalNs, sb.TotalNs)
	}
	if ss.HitRate() < sb.HitRate()-1e-9 {
		t.Errorf("sparkxd hit rate %v below baseline %v", ss.HitRate(), sb.HitRate())
	}
}

func TestPolicyNames(t *testing.T) {
	g := dram.SmallTestGeometry()
	b, _ := Baseline(g, 1)
	s, _ := SparkXD(g, 1, AllSafe(g))
	if b.Policy != "baseline" || s.Policy != "sparkxd" {
		t.Fatal("policy labels wrong")
	}
}

func TestSubarraysUsed(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, _ := Baseline(g, g.Columns*g.Rows+1) // just spills into subarray 1
	if l.SubarraysUsed() != 2 {
		t.Fatalf("SubarraysUsed = %d, want 2", l.SubarraysUsed())
	}
}

func TestAccessStreamSharesCoords(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, _ := Baseline(g, 10)
	s := l.AccessStream()
	if len(s) != 10 || s[0] != l.CoordOf(0) {
		t.Fatal("AccessStream must be the placement in image order")
	}
}

// baselineReference is the per-unit Baseline loop: unit u at linear
// address u.
func baselineReference(g dram.Geometry, units int) []dram.Coord {
	coords := make([]dram.Coord, units)
	for u := range coords {
		coords[u] = g.Decode(int64(u))
	}
	return coords
}

// sparkXDReference is the per-unit Algorithm 2 loop nest; ok is false
// when the safe subarrays cannot hold the image.
func sparkXDReference(g dram.Geometry, units int, safe []bool) (coords []dram.Coord, ok bool) {
	for ch := 0; ch < g.Channels; ch++ {
		for ra := 0; ra < g.Ranks; ra++ {
			for cp := 0; cp < g.Chips; cp++ {
				for ro := 0; ro < g.Rows; ro++ {
					for su := 0; su < g.Subarrays; su++ {
						for ba := 0; ba < g.Banks; ba++ {
							id := dram.SubarrayID{Channel: ch, Rank: ra, Chip: cp, Bank: ba, Subarray: su}
							if !safe[id.Linear(g)] {
								continue
							}
							for co := 0; co < g.Columns; co++ {
								if len(coords) == units {
									return coords, true
								}
								coords = append(coords, dram.Coord{
									Channel: ch, Rank: ra, Chip: cp,
									Bank: ba, Subarray: su, Row: ro, Column: co,
								})
							}
						}
					}
				}
			}
		}
	}
	return coords, len(coords) == units
}

// checkAgainstReference compares every accessor of l with the per-unit
// coordinates want.
func checkAgainstReference(t *testing.T, name string, l *Layout, want []dram.Coord) {
	t.Helper()
	if l.Units() != len(want) {
		t.Fatalf("%s: Units = %d, want %d", name, l.Units(), len(want))
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	stream := l.AccessStream()
	if len(stream) != len(want) {
		t.Fatalf("%s: AccessStream has %d accesses, want %d", name, len(stream), len(want))
	}
	subs := map[dram.SubarrayID]bool{}
	banks := map[dram.BankID]bool{}
	for u, c := range want {
		if got := l.CoordOf(u); got != c {
			t.Fatalf("%s: CoordOf(%d) = %v, want %v", name, u, got, c)
		}
		if stream[u] != c {
			t.Fatalf("%s: AccessStream[%d] = %v, want %v", name, u, stream[u], c)
		}
		subs[c.SubarrayOf()] = true
		banks[c.BankOf()] = true
	}
	if l.SubarraysUsed() != len(subs) || l.BanksUsed() != len(banks) {
		t.Fatalf("%s: SubarraysUsed, BanksUsed = %d, %d, want %d, %d",
			name, l.SubarraysUsed(), l.BanksUsed(), len(subs), len(banks))
	}
}

// TestLayoutMatchesPerUnitReference checks the row-run layouts of both
// policies against per-unit placement loops: on the small test geometry
// and the LPDDR3 device, for random safe sets, image sizes with a short
// last row, a single unit, and no unit at all.
func TestLayoutMatchesPerUnitReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, g := range []dram.Geometry{dram.SmallTestGeometry(), dram.LPDDR3_1600_4Gb()} {
		// The last size is an N200 FP32 image on the LPDDR3 device, and
		// half the small device plus a short row.
		sizes := []int{0, 1, g.Columns - 1, g.Columns, 3*g.Columns + 5, min(19600, int(g.TotalColumns()/2)+3)}
		for _, units := range sizes {
			base, err := Baseline(g, units)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("baseline/%d", units), base, baselineReference(g, units))

			for trial := 0; trial < 4; trial++ {
				safe := make([]bool, g.SubarrayCount())
				for i := range safe {
					safe[i] = r.Float64() < 0.2+0.2*float64(trial)
				}
				name := fmt.Sprintf("sparkxd/%d/trial%d", units, trial)
				want, ok := sparkXDReference(g, units, safe)
				spark, err := SparkXD(g, units, safe)
				if !ok {
					if !errors.Is(err, ErrInsufficientSafeCapacity) {
						t.Fatalf("%s: err = %v, want ErrInsufficientSafeCapacity", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAgainstReference(t, name, spark, want)
			}
		}
	}
}

// sparkXDWalk is SparkXD without its capacity check: every image,
// fitting or not, walks the loop nest, and the error reports the units
// the walk placed. It is the reference the check must match.
func sparkXDWalk(geom dram.Geometry, units int, safe []bool) (*Layout, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: geometry: %w", err)
	}
	if len(safe) != geom.SubarrayCount() {
		return nil, fmt.Errorf("mapping: safe flags length %d, want %d",
			len(safe), geom.SubarrayCount())
	}
	if units < 0 {
		return nil, errors.New("mapping: negative unit count")
	}
	rows := make([]dram.Coord, 0, UnitsFor(units, geom.Columns))

placement:
	for ch := 0; ch < geom.Channels; ch++ {
		for ra := 0; ra < geom.Ranks; ra++ {
			for cp := 0; cp < geom.Chips; cp++ {
				for ro := 0; ro < geom.Rows; ro++ {
					for su := 0; su < geom.Subarrays; su++ {
						for ba := 0; ba < geom.Banks; ba++ {
							if len(rows)*geom.Columns >= units {
								break placement
							}
							id := dram.SubarrayID{Channel: ch, Rank: ra, Chip: cp, Bank: ba, Subarray: su}
							if !safe[id.Linear(geom)] {
								continue
							}
							rows = append(rows, dram.Coord{
								Channel: ch, Rank: ra, Chip: cp,
								Bank: ba, Subarray: su, Row: ro,
							})
						}
					}
				}
			}
		}
	}
	if placed := len(rows) * geom.Columns; placed < units {
		return nil, fmt.Errorf("%w: placed %d of %d units",
			ErrInsufficientSafeCapacity, placed, units)
	}
	return &Layout{Geom: geom, Policy: "sparkxd", unitBytes: geom.ColumnBytes, units: units, rows: rows}, nil
}

// TestSparkXDCapacityCheckMatchesWalk checks SparkXD's capacity check
// against the walk it skips: on the small test geometry and the LPDDR3
// device, with random safe sets (none safe, some, all), images that fit
// exactly, that are one unit too large, and that are far too large, and
// the input errors (bad geometry, wrong flag count, negative units).
// Both must return the same layout, or errors with the same text that
// agree under errors.Is.
func TestSparkXDCapacityCheckMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	check := func(name string, g dram.Geometry, units int, safe []bool) {
		t.Helper()
		want, wantErr := sparkXDWalk(g, units, safe)
		got, err := SparkXD(g, units, safe)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: err = %v, walk %v", name, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() ||
				errors.Is(err, ErrInsufficientSafeCapacity) != errors.Is(wantErr, ErrInsufficientSafeCapacity) {
				t.Fatalf("%s: err = %q, walk %q", name, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: layout differs from the walk's", name)
		}
	}
	for _, g := range []dram.Geometry{dram.SmallTestGeometry(), dram.LPDDR3_1600_4Gb()} {
		perSub := g.Rows * g.Columns
		for trial := 0; trial < 6; trial++ {
			safe := make([]bool, g.SubarrayCount())
			count := 0
			for i := range safe {
				// Trial 0 marks nothing safe, trial 5 everything.
				safe[i] = r.Float64() < float64(trial)/5
				if safe[i] {
					count++
				}
			}
			capacity := count * perSub
			for _, units := range []int{0, 1, capacity - 1, capacity, capacity + 1, capacity + perSub, int(g.TotalColumns()) + 1} {
				if units < 0 {
					continue
				}
				check(fmt.Sprintf("%dx%d/trial%d/units%d", g.Banks, g.Subarrays, trial, units), g, units, safe)
			}
			check(fmt.Sprintf("trial%d/negative", trial), g, -1, safe)
			check(fmt.Sprintf("trial%d/flags", trial), g, 1, safe[1:])
			bad := g
			bad.Rows = 0
			check(fmt.Sprintf("trial%d/geometry", trial), bad, 1, safe)
		}
	}
}
