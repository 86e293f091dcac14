// Package dram models the organization, addressing, commands, and timing
// of a commodity DRAM device in the way the SparkXD paper needs them:
// channel -> rank -> chip -> bank -> subarray -> row -> column (Fig. 5(a)).
//
// The package is purely structural: geometry and address arithmetic live
// here, voltage-dependent behaviour lives in package voltscale, energy in
// package power, and the row-buffer state machine in package memctrl.
//
// A "column" in this model is one burst-granularity access unit
// (ColumnBytes bytes, default 32 B = one BL8 burst of a x32 LPDDR3 chip).
// Weight tensors are serialized into column-sized units by package mapping.
package dram

import (
	"errors"
	"fmt"
)

// Geometry describes the hierarchical organization of a DRAM system.
type Geometry struct {
	Channels     int // independent channels
	Ranks        int // ranks per channel
	Chips        int // chips per rank (accessed in lock-step)
	Banks        int // banks per chip
	Subarrays    int // subarrays per bank
	Rows         int // rows per subarray
	Columns      int // column units per row
	ColumnBytes  int // bytes per column unit (one burst)
	BurstLength  int // beats per burst (BL8)
	DataWidthBit int // interface width per chip in bits (x16/x32)
}

// Validate reports whether every field of g is positive.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.Ranks <= 0, g.Chips <= 0, g.Banks <= 0,
		g.Subarrays <= 0, g.Rows <= 0, g.Columns <= 0, g.ColumnBytes <= 0,
		g.BurstLength <= 0, g.DataWidthBit <= 0:
		return errors.New("dram: geometry fields must all be positive")
	}
	return nil
}

// ChipCapacityBytes returns the capacity of one chip in bytes.
func (g Geometry) ChipCapacityBytes() int64 {
	return int64(g.Banks) * int64(g.Subarrays) * int64(g.Rows) *
		int64(g.Columns) * int64(g.ColumnBytes)
}

// TotalColumns returns the total number of column units in the system.
func (g Geometry) TotalColumns() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Chips) *
		int64(g.Banks) * int64(g.Subarrays) * int64(g.Rows) * int64(g.Columns)
}

// TotalCapacityBytes returns the capacity of the whole system in bytes.
func (g Geometry) TotalCapacityBytes() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Chips) * g.ChipCapacityBytes()
}

// SubarrayCount returns the total number of subarrays in the system.
func (g Geometry) SubarrayCount() int {
	return g.Channels * g.Ranks * g.Chips * g.Banks * g.Subarrays
}

// Coord identifies one column unit in the hierarchy.
type Coord struct {
	Channel, Rank, Chip, Bank, Subarray, Row, Column int
}

// String renders the coordinate in ch/ra/cp/ba/su/ro/co order.
func (c Coord) String() string {
	return fmt.Sprintf("ch%d.ra%d.cp%d.ba%d.su%d.ro%d.co%d",
		c.Channel, c.Rank, c.Chip, c.Bank, c.Subarray, c.Row, c.Column)
}

// GlobalRow returns the row index within the bank (subarray-major).
func (c Coord) GlobalRow(g Geometry) int { return c.Subarray*g.Rows + c.Row }

// Valid reports whether c lies inside geometry g.
func (c Coord) Valid(g Geometry) bool {
	return c.Channel >= 0 && c.Channel < g.Channels &&
		c.Rank >= 0 && c.Rank < g.Ranks &&
		c.Chip >= 0 && c.Chip < g.Chips &&
		c.Bank >= 0 && c.Bank < g.Banks &&
		c.Subarray >= 0 && c.Subarray < g.Subarrays &&
		c.Row >= 0 && c.Row < g.Rows &&
		c.Column >= 0 && c.Column < g.Columns
}

// Encode converts a coordinate to a linear column index. The order is
// channel-major: ch, ra, cp, ba, su, ro, co — i.e. consecutive linear
// indices walk the columns of one row first, then rows, then subarrays,
// then banks, matching the "subsequent address space in a DRAM bank"
// baseline layout of the paper (Sec. IV-B Step-2).
func (g Geometry) Encode(c Coord) int64 {
	if !c.Valid(g) {
		panic(fmt.Sprintf("dram: coordinate %v outside geometry", c))
	}
	idx := int64(c.Channel)
	idx = idx*int64(g.Ranks) + int64(c.Rank)
	idx = idx*int64(g.Chips) + int64(c.Chip)
	idx = idx*int64(g.Banks) + int64(c.Bank)
	idx = idx*int64(g.Subarrays) + int64(c.Subarray)
	idx = idx*int64(g.Rows) + int64(c.Row)
	idx = idx*int64(g.Columns) + int64(c.Column)
	return idx
}

// Decode converts a linear column index back to a coordinate.
func (g Geometry) Decode(idx int64) Coord {
	if idx < 0 || idx >= g.TotalColumns() {
		panic(fmt.Sprintf("dram: linear index %d outside geometry", idx))
	}
	var c Coord
	c.Column = int(idx % int64(g.Columns))
	idx /= int64(g.Columns)
	c.Row = int(idx % int64(g.Rows))
	idx /= int64(g.Rows)
	c.Subarray = int(idx % int64(g.Subarrays))
	idx /= int64(g.Subarrays)
	c.Bank = int(idx % int64(g.Banks))
	idx /= int64(g.Banks)
	c.Chip = int(idx % int64(g.Chips))
	idx /= int64(g.Chips)
	c.Rank = int(idx % int64(g.Ranks))
	idx /= int64(g.Ranks)
	c.Channel = int(idx)
	return c
}

// SubarrayID identifies one subarray in the system.
type SubarrayID struct {
	Channel, Rank, Chip, Bank, Subarray int
}

// SubarrayOf returns the subarray that contains c.
func (c Coord) SubarrayOf() SubarrayID {
	return SubarrayID{c.Channel, c.Rank, c.Chip, c.Bank, c.Subarray}
}

// Linear returns a dense index for the subarray in [0, g.SubarrayCount()).
func (s SubarrayID) Linear(g Geometry) int {
	idx := s.Channel
	idx = idx*g.Ranks + s.Rank
	idx = idx*g.Chips + s.Chip
	idx = idx*g.Banks + s.Bank
	idx = idx*g.Subarrays + s.Subarray
	return idx
}

// String renders the subarray identity.
func (s SubarrayID) String() string {
	return fmt.Sprintf("ch%d.ra%d.cp%d.ba%d.su%d",
		s.Channel, s.Rank, s.Chip, s.Bank, s.Subarray)
}

// BankID identifies one bank in the system (the row-buffer granularity).
type BankID struct {
	Channel, Rank, Chip, Bank int
}

// BankOf returns the bank that contains c.
func (c Coord) BankOf() BankID {
	return BankID{c.Channel, c.Rank, c.Chip, c.Bank}
}

// Linear returns a dense index for the bank in [0, total banks).
func (b BankID) Linear(g Geometry) int {
	idx := b.Channel
	idx = idx*g.Ranks + b.Rank
	idx = idx*g.Chips + b.Chip
	idx = idx*g.Banks + b.Bank
	return idx
}

// BankCount returns the total number of banks in the system.
func (g Geometry) BankCount() int { return g.Channels * g.Ranks * g.Chips * g.Banks }

// CommandKind enumerates the DRAM commands the simulator issues (Fig. 5(b)).
type CommandKind uint8

const (
	CmdACT CommandKind = iota // activate a row into the row buffer
	CmdRD                     // read a column burst
	CmdWR                     // write a column burst
	CmdPRE                    // precharge (close) the active row
	CmdREF                    // refresh
)

// String returns the conventional mnemonic.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdPRE:
		return "PRE"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(k))
	}
}

// Command is one entry of a command trace.
type Command struct {
	Kind CommandKind
	Bank BankID
	Row  int // global row within the bank (ACT only)
	Col  int // column (RD/WR only)
}

// AccessClass classifies one column access by row-buffer outcome
// (Sec. II-B1 of the paper).
type AccessClass uint8

const (
	// AccessHit: the requested row is already in the row buffer.
	AccessHit AccessClass = iota
	// AccessMiss: no row is open in the bank; an ACT is required.
	AccessMiss
	// AccessConflict: a different row is open; PRE then ACT are required.
	AccessConflict
)

// String names the access class.
func (a AccessClass) String() string {
	switch a {
	case AccessHit:
		return "hit"
	case AccessMiss:
		return "miss"
	case AccessConflict:
		return "conflict"
	default:
		return fmt.Sprintf("AccessClass(%d)", uint8(a))
	}
}

// Timing holds the DRAM timing parameters in nanoseconds. The three
// voltage-sensitive parameters (tRCD, tRAS, tRP) are produced by the
// circuit model in package voltscale; the rest are clock-bound.
type Timing struct {
	TCK    float64 // clock period
	TRCD   float64 // row-address to column-address delay
	TRAS   float64 // row active time
	TRP    float64 // row precharge time
	TCL    float64 // CAS (read) latency
	TBURST float64 // data burst duration (BL/2 * tCK for DDR)
	TRFC   float64 // refresh cycle time
	TREFI  float64 // average refresh interval
	TCCD   float64 // column-to-column delay
	TRRD   float64 // row-to-row (different bank) activation delay
}

// Validate reports whether the timing parameters are physically coherent.
func (t Timing) Validate() error {
	switch {
	case t.TCK <= 0, t.TRCD <= 0, t.TRAS <= 0, t.TRP <= 0, t.TCL <= 0,
		t.TBURST <= 0, t.TRFC <= 0, t.TREFI <= 0:
		return errors.New("dram: timing fields must be positive")
	case t.TRAS < t.TRCD:
		return fmt.Errorf("dram: tRAS (%.2f) must be >= tRCD (%.2f)", t.TRAS, t.TRCD)
	}
	return nil
}

// LPDDR3_1600_4Gb returns the geometry of the LPDDR3-1600 4Gb x32 device
// used throughout the paper's evaluation: 8 banks, 32 subarrays per bank,
// 1024 rows per subarray (32768 rows/bank), 2 KB rows, 32-byte bursts:
// 8 * 32 * 1024 * 2 KB = 512 MiB = 4 Gb.
// One channel, one rank, one chip keeps the model at the device scale the
// paper reports (a single LPDDR3 package as embedded main memory).
func LPDDR3_1600_4Gb() Geometry {
	return Geometry{
		Channels:     1,
		Ranks:        1,
		Chips:        1,
		Banks:        8,
		Subarrays:    32,
		Rows:         1024,
		Columns:      64, // 64 columns x 32 B = 2 KB per row
		ColumnBytes:  32,
		BurstLength:  8,
		DataWidthBit: 32,
	}
}

// NominalTiming returns the LPDDR3-1600 timing set at the nominal 1.35 V
// supply: tCK = 1.25 ns (800 MHz), tRCD = 18 ns, tRAS = 42 ns, tRP = 18 ns,
// CL = 15 ns, BL8 burst = 5 ns, tRFC = 130 ns, tREFI = 3.9 us.
func NominalTiming() Timing {
	return Timing{
		TCK:    1.25,
		TRCD:   18.0,
		TRAS:   42.0,
		TRP:    18.0,
		TCL:    15.0,
		TBURST: 5.0,
		TRFC:   130.0,
		TREFI:  3900.0,
		TCCD:   5.0,
		TRRD:   10.0,
	}
}

// SmallTestGeometry returns a deliberately tiny geometry used by unit
// tests so that exhaustive address-space walks stay fast.
func SmallTestGeometry() Geometry {
	return Geometry{
		Channels:     2,
		Ranks:        2,
		Chips:        2,
		Banks:        4,
		Subarrays:    4,
		Rows:         8,
		Columns:      16,
		ColumnBytes:  32,
		BurstLength:  8,
		DataWidthBit: 32,
	}
}
