package memctrl

import (
	"testing"

	"sparkxd/internal/dram"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	c, err := New(dram.SmallTestGeometry(), dram.NominalTiming())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewRejectsBadInputs(t *testing.T) {
	g := dram.SmallTestGeometry()
	g.Banks = 0
	if _, err := New(g, dram.NominalTiming()); err == nil {
		t.Error("invalid geometry must be rejected")
	}
	tm := dram.NominalTiming()
	tm.TRCD = 0
	if _, err := New(dram.SmallTestGeometry(), tm); err == nil {
		t.Error("invalid timing must be rejected")
	}
}

func TestFirstAccessIsMiss(t *testing.T) {
	c := newCtl(t)
	class := c.Do(Access{Coord: dram.Coord{}})
	if class != dram.AccessMiss {
		t.Fatalf("first access = %v, want miss", class)
	}
}

func TestSameRowHits(t *testing.T) {
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{Column: 0}})
	for col := 1; col < 8; col++ {
		if class := c.Do(Access{Coord: dram.Coord{Column: col}}); class != dram.AccessHit {
			t.Fatalf("same-row access col %d = %v, want hit", col, class)
		}
	}
	s := c.Stats()
	if s.Hits != 7 || s.Misses != 1 || s.Conflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDifferentRowSameBankConflicts(t *testing.T) {
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{Row: 0}})
	class := c.Do(Access{Coord: dram.Coord{Row: 1}})
	if class != dram.AccessConflict {
		t.Fatalf("row switch = %v, want conflict", class)
	}
}

func TestDifferentSubarraySameBankConflicts(t *testing.T) {
	// Subarrays share the bank's row buffer in commodity DRAM, so moving
	// between subarrays of one bank is still a conflict.
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{Subarray: 0}})
	if class := c.Do(Access{Coord: dram.Coord{Subarray: 1}}); class != dram.AccessConflict {
		t.Fatalf("subarray switch = %v, want conflict", class)
	}
}

func TestDifferentBankMisses(t *testing.T) {
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{Bank: 0}})
	if class := c.Do(Access{Coord: dram.Coord{Bank: 1}}); class != dram.AccessMiss {
		t.Fatal("first access to a fresh bank must be a miss")
	}
	// Returning to bank 0's open row is still a hit.
	if class := c.Do(Access{Coord: dram.Coord{Bank: 0}}); class != dram.AccessHit {
		t.Fatal("open row in the other bank must still hit")
	}
}

func TestClassifyDoesNotMutate(t *testing.T) {
	c := newCtl(t)
	a := Access{Coord: dram.Coord{}}
	if c.Classify(a) != dram.AccessMiss {
		t.Fatal("classify of fresh bank should be miss")
	}
	if c.Classify(a) != dram.AccessMiss {
		t.Fatal("classify must not open the row")
	}
	s := c.Stats()
	if s.Accesses() != 0 {
		t.Fatal("classify must not count accesses")
	}
}

func TestCommandTallyMatchesClasses(t *testing.T) {
	c := newCtl(t)
	// miss (ACT), hit, conflict (PRE+ACT), hit, bank switch miss (ACT)
	c.Do(Access{Coord: dram.Coord{Row: 0, Column: 0}})
	c.Do(Access{Coord: dram.Coord{Row: 0, Column: 1}})
	c.Do(Access{Coord: dram.Coord{Row: 1, Column: 0}})
	c.Do(Access{Coord: dram.Coord{Row: 1, Column: 1}})
	c.Do(Access{Coord: dram.Coord{Bank: 1}})
	s := c.Stats()
	if s.Tally.NACT != 3 {
		t.Errorf("NACT = %d, want 3", s.Tally.NACT)
	}
	if s.Tally.NPRE != 1 {
		t.Errorf("NPRE = %d, want 1", s.Tally.NPRE)
	}
	if s.Tally.NRD != 5 {
		t.Errorf("NRD = %d, want 5", s.Tally.NRD)
	}
	if s.Tally.NWR != 0 {
		t.Errorf("NWR = %d, want 0", s.Tally.NWR)
	}
}

func TestWritesCounted(t *testing.T) {
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{}, Write: true})
	s := c.Stats()
	if s.Writes != 1 || s.Tally.NWR != 1 || s.Tally.NRD != 0 {
		t.Fatalf("write accounting wrong: %+v", s)
	}
}

func TestOnCommandObservesTrace(t *testing.T) {
	c := newCtl(t)
	var cmds []dram.Command
	var times []float64
	c.OnCommand = func(cmd dram.Command, atNs float64) {
		cmds = append(cmds, cmd)
		times = append(times, atNs)
	}
	c.Do(Access{Coord: dram.Coord{Row: 0}})
	c.Do(Access{Coord: dram.Coord{Row: 1}})
	// Expect ACT,RD, PRE,ACT,RD.
	kinds := []dram.CommandKind{dram.CmdACT, dram.CmdRD, dram.CmdPRE, dram.CmdACT, dram.CmdRD}
	if len(cmds) != len(kinds) {
		t.Fatalf("got %d commands, want %d", len(cmds), len(kinds))
	}
	for i, k := range kinds {
		if cmds[i].Kind != k {
			t.Errorf("command %d = %v, want %v", i, cmds[i].Kind, k)
		}
	}
	// Times must be non-decreasing per bank and PRE->ACT spaced by tRP.
	if times[3]-times[2] < dram.NominalTiming().TRP {
		t.Error("ACT after PRE must wait at least tRP")
	}
}

func TestHitStreamFasterThanConflictStream(t *testing.T) {
	g := dram.SmallTestGeometry()
	tm := dram.NominalTiming()
	hitCtl, _ := New(g, tm)
	confCtl, _ := New(g, tm)

	var hits, confs []Access
	for i := 0; i < 64; i++ {
		hits = append(hits, Access{Coord: dram.Coord{Column: i % g.Columns}})
		confs = append(confs, Access{Coord: dram.Coord{Row: i % g.Rows}})
	}
	hs := hitCtl.Replay(hits)
	cs := confCtl.Replay(confs)
	if hs.TotalNs >= cs.TotalNs {
		t.Fatalf("hit stream (%v ns) must be faster than conflict stream (%v ns)",
			hs.TotalNs, cs.TotalNs)
	}
	if hs.HitRate() < 0.9 {
		t.Errorf("hit stream hit rate = %v", hs.HitRate())
	}
}

// Bank interleaving must hide row-transition latency: streaming the same
// number of bursts across 4 banks with per-bank row switches is faster
// than the same stream confined to one bank.
func TestMultiBankOverlapHidesRowSwitches(t *testing.T) {
	g := dram.SmallTestGeometry()
	tm := dram.NominalTiming()

	var oneBank, interleaved []Access
	n := 128
	for i := 0; i < n; i++ {
		// one bank: new row every 4 accesses -> frequent conflicts, no overlap
		oneBank = append(oneBank, Access{Coord: dram.Coord{
			Row:    (i / 4) % g.Rows,
			Column: i % 4,
		}})
		// interleaved: same row-switch cadence but spread over 4 banks
		interleaved = append(interleaved, Access{Coord: dram.Coord{
			Bank:   i % 4,
			Row:    (i / 16) % g.Rows,
			Column: (i / 4) % 4,
		}})
	}
	c1, _ := New(g, tm)
	c2, _ := New(g, tm)
	s1 := c1.Replay(oneBank)
	s2 := c2.Replay(interleaved)
	if s2.TotalNs >= s1.TotalNs {
		t.Fatalf("interleaved stream (%v ns) should beat single-bank stream (%v ns)",
			s2.TotalNs, s1.TotalNs)
	}
	if s2.BusUtilization() <= s1.BusUtilization() {
		t.Error("interleaving should raise bus utilization")
	}
}

func TestResetClearsState(t *testing.T) {
	c := newCtl(t)
	c.Do(Access{Coord: dram.Coord{}})
	c.Reset()
	s := c.Stats()
	if s.Accesses() != 0 || s.TotalNs != 0 {
		t.Fatal("Reset must clear stats")
	}
	if c.Do(Access{Coord: dram.Coord{}}) != dram.AccessMiss {
		t.Fatal("after Reset the first access must miss again")
	}
}

func TestReplayReads(t *testing.T) {
	c := newCtl(t)
	coords := []dram.Coord{{}, {Column: 1}, {Column: 2}}
	s := c.ReplayReads(coords)
	if s.Reads != 3 || s.Writes != 0 {
		t.Fatalf("ReplayReads stats = %+v", s)
	}
}

func TestRefreshAccounting(t *testing.T) {
	g := dram.SmallTestGeometry()
	tm := dram.NominalTiming()
	c, _ := New(g, tm)
	// Enough bursts to exceed a few tREFI (3900 ns): 1000 bursts * 5 ns.
	var stream []Access
	for i := 0; i < 1000; i++ {
		stream = append(stream, Access{Coord: dram.Coord{Column: i % g.Columns}})
	}
	s := c.Replay(stream)
	if s.Tally.NREF == 0 {
		t.Error("long stream must incur refreshes")
	}
	wantRef := int64(s.TotalNs / tm.TREFI)
	if s.Tally.NREF != wantRef {
		t.Errorf("NREF = %d, want %d", s.Tally.NREF, wantRef)
	}
}

func TestStatsAccessorsAndString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Conflicts: 0, TotalNs: 100, BusBusyNs: 50}
	if s.Accesses() != 4 {
		t.Error("Accesses wrong")
	}
	if s.HitRate() != 0.75 {
		t.Error("HitRate wrong")
	}
	if s.BusUtilization() != 0.5 {
		t.Error("BusUtilization wrong")
	}
	if (Stats{}).HitRate() != 0 || (Stats{}).BusUtilization() != 0 {
		t.Error("degenerate stats must be 0")
	}
	if len(s.String()) == 0 {
		t.Error("String empty")
	}
}

func TestDoPanicsOutsideGeometry(t *testing.T) {
	c := newCtl(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-geometry access")
		}
	}()
	c.Do(Access{Coord: dram.Coord{Channel: 99}})
}

func TestActiveResidencyEqualsTotal(t *testing.T) {
	c := newCtl(t)
	s := c.Replay([]Access{{Coord: dram.Coord{}}, {Coord: dram.Coord{Column: 1}}})
	if s.Tally.ActiveNs != s.TotalNs || s.Tally.IdleNs != 0 {
		t.Fatalf("residency accounting wrong: %+v", s.Tally)
	}
}
