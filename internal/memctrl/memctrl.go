// Package memctrl simulates the DRAM memory controller of the SparkXD
// evaluation platform: an open-page controller with per-bank row buffers,
// FR-FCFS-style in-order replay of an access stream, and the multi-bank
// burst behaviour the paper's mapping exploits (Fig. 9(b)).
//
// The controller does three jobs:
//
//  1. classify every access as row-buffer hit, miss, or conflict
//     (Sec. II-B1), which determines its energy (package power);
//  2. produce the command tally (ACT/PRE/RD/WR/REF counts plus active and
//     idle residency) that the energy model integrates, playing the role
//     of the "DRAM access traces & statistics" box of Fig. 10;
//  3. account cycles with bank-level overlap, so that mappings which
//     interleave across banks hide tRCD/tRP behind data bursts of other
//     banks — this is what yields SparkXD's ~1.02x speed-up (Fig. 12(b)).
//
// The timing model is bank-accurate rather than cycle-accurate: each bank
// tracks when its row buffer becomes usable, and the shared data bus
// serializes bursts. That level of detail is exactly what the paper's
// energy and throughput numbers depend on (row-buffer outcomes and burst
// overlap), while remaining fast enough to replay hundreds of thousands
// of accesses per benchmark iteration.
package memctrl

import (
	"fmt"

	"sparkxd/internal/dram"
	"sparkxd/internal/power"
)

// Access is one element of a memory access stream.
type Access struct {
	Coord dram.Coord
	Write bool
}

// Stats aggregates the outcome of replaying an access stream.
type Stats struct {
	Hits, Misses, Conflicts int64
	Reads, Writes           int64
	Tally                   power.Tally
	// TotalNs is the makespan of the stream (last data beat).
	TotalNs float64
	// BusBusyNs is the time the data bus spent transferring bursts.
	BusBusyNs float64
}

// Accesses returns the total number of accesses replayed.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses + s.Conflicts }

// HitRate returns the fraction of accesses that hit the row buffer.
func (s Stats) HitRate() float64 {
	n := s.Accesses()
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// BusUtilization returns the fraction of the makespan the data bus was busy.
func (s Stats) BusUtilization() float64 {
	if s.TotalNs == 0 {
		return 0
	}
	return s.BusBusyNs / s.TotalNs
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d hit=%.1f%% (h=%d m=%d c=%d) t=%.0fns bus=%.1f%%",
		s.Accesses(), s.HitRate()*100, s.Hits, s.Misses, s.Conflicts,
		s.TotalNs, s.BusUtilization()*100)
}

// bankState tracks one bank's row buffer and readiness.
type bankState struct {
	openRow int     // global row index, -1 if closed
	readyNs float64 // when the bank can issue its next column command
}

// Controller is an open-page DRAM controller simulator. Create with New;
// the zero value is not usable.
type Controller struct {
	geom   dram.Geometry
	timing dram.Timing
	banks  []bankState
	busNs  float64 // earliest time the next column command may issue
	endNs  float64 // makespan: end of the last data burst
	stats  Stats

	// OnCommand, when non-nil, observes every DRAM command with its issue
	// time — the hook used to export DRAMPower-style command traces.
	OnCommand func(cmd dram.Command, atNs float64)
}

// New returns a controller for the given geometry and timing, with all
// banks precharged.
func New(geom dram.Geometry, timing dram.Timing) (*Controller, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("memctrl: geometry: %w", err)
	}
	if err := timing.Validate(); err != nil {
		return nil, fmt.Errorf("memctrl: timing: %w", err)
	}
	banks := make([]bankState, geom.BankCount())
	for i := range banks {
		banks[i].openRow = -1
	}
	return &Controller{geom: geom, timing: timing, banks: banks}, nil
}

// Reset returns the controller to the all-banks-precharged initial state
// and clears statistics.
func (c *Controller) Reset() {
	for i := range c.banks {
		c.banks[i] = bankState{openRow: -1}
	}
	c.busNs = 0
	c.endNs = 0
	c.stats = Stats{}
}

// Stats returns a snapshot of the accumulated statistics, completing the
// derived fields (refresh count, active/idle residency).
func (c *Controller) Stats() Stats {
	s := c.stats
	s.TotalNs = c.endNs
	// Refresh: one REF per tREFI of elapsed time.
	if c.timing.TREFI > 0 {
		s.Tally.NREF = int64(s.TotalNs / c.timing.TREFI)
	}
	// Background residency: banks hold rows open while streaming, so the
	// makespan counts as active standby; idle time is what the bus didn't
	// use but rows were still open — already inside the makespan. Idle
	// (all-precharged) residency outside the stream is zero by definition
	// of a per-inference replay.
	s.Tally.ActiveNs = s.TotalNs
	s.Tally.IdleNs = 0
	return s
}

// Classify returns the row-buffer outcome the access would see, without
// executing it.
func (c *Controller) Classify(a Access) dram.AccessClass {
	b := &c.banks[a.Coord.BankOf().Linear(c.geom)]
	row := a.Coord.GlobalRow(c.geom)
	switch {
	case b.openRow == row:
		return dram.AccessHit
	case b.openRow == -1:
		return dram.AccessMiss
	default:
		return dram.AccessConflict
	}
}

func (c *Controller) emit(kind dram.CommandKind, bank dram.BankID, row, col int, atNs float64) {
	if c.OnCommand != nil {
		c.OnCommand(dram.Command{Kind: kind, Bank: bank, Row: row, Col: col}, atNs)
	}
}

// Do executes one access: classifies it, issues the implied commands,
// advances bank and bus timing, and updates statistics. It returns the
// access class.
func (c *Controller) Do(a Access) dram.AccessClass {
	if !a.Coord.Valid(c.geom) {
		panic(fmt.Sprintf("memctrl: access outside geometry: %v", a.Coord))
	}
	bankID := a.Coord.BankOf()
	b := &c.banks[bankID.Linear(c.geom)]
	row := a.Coord.GlobalRow(c.geom)
	class := c.Classify(a)

	// Row management: PRE/ACT run inside the target bank and overlap with
	// column bursts of *other* banks — the multi-bank burst overlap of
	// Fig. 9(b). They are scheduled as soon as the bank itself is free.
	switch class {
	case dram.AccessHit:
		c.stats.Hits++
	case dram.AccessMiss:
		c.stats.Misses++
		start := b.readyNs
		c.emit(dram.CmdACT, bankID, row, 0, start)
		c.stats.Tally.NACT++
		b.readyNs = start + c.timing.TRCD
		b.openRow = row
	case dram.AccessConflict:
		c.stats.Conflicts++
		start := b.readyNs
		c.emit(dram.CmdPRE, bankID, 0, 0, start)
		c.stats.Tally.NPRE++
		actAt := start + c.timing.TRP
		c.emit(dram.CmdACT, bankID, row, 0, actAt)
		c.stats.Tally.NACT++
		b.readyNs = actAt + c.timing.TRCD
		b.openRow = row
	}

	// Column command: waits for the bank's row to be ready and for the
	// shared data bus slot; consecutive bursts are tCCD apart, which for
	// BL8 keeps the bus saturated when no bank stalls.
	issue := maxf(b.readyNs, c.busNs)
	dataEnd := issue + c.timing.TCL + c.timing.TBURST
	if a.Write {
		c.emit(dram.CmdWR, bankID, 0, a.Coord.Column, issue)
		c.stats.Tally.NWR++
		c.stats.Writes++
	} else {
		c.emit(dram.CmdRD, bankID, 0, a.Coord.Column, issue)
		c.stats.Tally.NRD++
		c.stats.Reads++
	}
	c.busNs = issue + c.timing.TCCD
	b.readyNs = maxf(b.readyNs, issue+c.timing.TCCD)
	if dataEnd > c.endNs {
		c.endNs = dataEnd
	}
	c.stats.BusBusyNs += c.timing.TBURST

	return class
}

// Replay resets the controller, executes the whole stream, and returns
// the resulting stats.
func (c *Controller) Replay(stream []Access) Stats {
	c.Reset()
	for _, a := range stream {
		c.Do(a)
	}
	return c.Stats()
}

// ReplayReads is Replay for a read-only stream of coordinates (the
// common case: streaming weights during inference).
func (c *Controller) ReplayReads(coords []dram.Coord) Stats {
	c.Reset()
	for _, co := range coords {
		c.Do(Access{Coord: co})
	}
	return c.Stats()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
