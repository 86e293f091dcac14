// Package mapping places serialized weight images into DRAM.
//
// Two policies are implemented, matching the paper's evaluation:
//
//   - Baseline (Sec. IV-B, Step-2): weights occupy subsequent addresses in
//     a DRAM bank to exploit burst access; when a bank is full, the next
//     bank of the same chip is used. This is the layout the baseline SNN
//     and the fault-aware training error injection assume.
//
//   - SparkXD (Sec. IV-D, Algorithm 2): weights are placed only in *safe*
//     subarrays (error rate <= BERth), filling the same row index across
//     the banks of a chip first (maximizing row-buffer hits and enabling
//     the multi-bank burst overlap of Fig. 9(b)), then moving to the next
//     subarray, then the next row index, then chips, ranks, and channels.
//
// Both policies place whole DRAM rows, each starting at column 0, and
// only the image's last row may be short. A Layout therefore records one
// DRAM coordinate per row of the image, in image order: unit u sits in
// row u/Columns at column u%Columns. The same Layout serves three
// consumers: the error injector (which bits live in which subarray), the
// memory controller (the access stream of one inference pass), and the
// energy model.
package mapping

import (
	"errors"
	"fmt"
	"unsafe"

	"sparkxd/internal/dram"
)

// Layout is the placement of an image's column units in DRAM. It
// satisfies errmodel.Placement.
type Layout struct {
	Geom      dram.Geometry
	Policy    string
	unitBytes int
	units     int
	// rows holds the coordinate of the first unit of every row the image
	// occupies, in image order; each is at column 0.
	rows []dram.Coord
}

// Units returns the number of placed column units.
func (l *Layout) Units() int { return l.units }

// UnitBytes returns the size of one column unit.
func (l *Layout) UnitBytes() int { return l.unitBytes }

// Bytes returns the bytes the layout's row table occupies.
func (l *Layout) Bytes() int64 { return int64(cap(l.rows)) * int64(unsafe.Sizeof(dram.Coord{})) }

// CoordOf returns the DRAM coordinate of image unit u.
func (l *Layout) CoordOf(u int) dram.Coord {
	c := l.rows[u/l.Geom.Columns]
	c.Column = u % l.Geom.Columns
	return c
}

// AccessStream returns the read access sequence of one streaming pass
// over the image (inference reads weights in image order). It builds the
// slice on each call.
func (l *Layout) AccessStream() []dram.Coord {
	out := make([]dram.Coord, 0, l.units)
	for _, c := range l.rows {
		for c.Column = 0; c.Column < l.Geom.Columns && len(out) < l.units; c.Column++ {
			out = append(out, c)
		}
	}
	return out
}

// SubarraysUsed returns how many distinct subarrays hold data.
func (l *Layout) SubarraysUsed() int {
	seen := map[dram.SubarrayID]bool{}
	for _, c := range l.rows {
		seen[c.SubarrayOf()] = true
	}
	return len(seen)
}

// BanksUsed returns how many distinct banks hold data.
func (l *Layout) BanksUsed() int {
	seen := map[dram.BankID]bool{}
	for _, c := range l.rows {
		seen[c.BankOf()] = true
	}
	return len(seen)
}

// UnitsFor returns how many column units an image of the given byte size
// occupies (rounding up to whole units).
func UnitsFor(imageBytes, unitBytes int) int {
	return (imageBytes + unitBytes - 1) / unitBytes
}

// Baseline places units in subsequent addresses of a bank (columns, then
// rows, then subarrays), moving to the next bank when one fills — the
// paper's baseline mapping. It errors if the image exceeds the device.
func Baseline(geom dram.Geometry, units int) (*Layout, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: geometry: %w", err)
	}
	if units < 0 {
		return nil, errors.New("mapping: negative unit count")
	}
	if int64(units) > geom.TotalColumns() {
		return nil, fmt.Errorf("mapping: image (%d units) exceeds device (%d units)",
			units, geom.TotalColumns())
	}
	// The linear Encode order is exactly ch,ra,cp,ba,su,ro,co — i.e.
	// sequential fill within a bank, then next bank — so row r starts at
	// linear unit r*Columns.
	rows := make([]dram.Coord, UnitsFor(units, geom.Columns))
	for r := range rows {
		rows[r] = geom.Decode(int64(r) * int64(geom.Columns))
	}
	return &Layout{Geom: geom, Policy: "baseline", unitBytes: geom.ColumnBytes, units: units, rows: rows}, nil
}

// ErrInsufficientSafeCapacity is returned by SparkXD when the safe
// subarrays cannot hold the image; callers typically relax BERth (pick a
// lower supply voltage or re-run the tolerance analysis).
var ErrInsufficientSafeCapacity = errors.New("mapping: safe subarrays cannot hold the image")

// SparkXD implements Algorithm 2 of the paper. safe flags one entry per
// subarray (dram.SubarrayID.Linear order); units is the image size in
// column units. The loop nest follows the paper exactly:
//
//	for ch { for ra { for cp { for ro { for su { for ba {
//	    if subarray_rate[ch,ra,cp,ba,su] <= BERth {
//	        for co { DRAM[ch,ra,cp,ba,su,ro,co] <- data }
//	    }
//	}}}}}}
//
// Iterating banks innermost (before columns advance to the next subarray
// or row) interleaves consecutive image units across banks at the same
// row index, which is what maximizes row-buffer hits per bank and lets
// multi-bank bursts overlap row activations.
//
// Every safe subarray holds Rows x Columns units, and a walk that cannot
// place the image visits all of them, so an image larger than that
// capacity fails before the walk, at the cost of one pass over safe,
// with the error the walk would return.
func SparkXD(geom dram.Geometry, units int, safe []bool) (*Layout, error) {
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
	safeCount := 0
	for _, ok := range safe {
		if ok {
			safeCount++
		}
	}
	if capacity := int64(safeCount) * int64(geom.Rows) * int64(geom.Columns); capacity < int64(units) {
		return nil, fmt.Errorf("%w: placed %d of %d units",
			ErrInsufficientSafeCapacity, capacity, units)
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
							// The co loop fills the row from column 0.
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
	return &Layout{Geom: geom, Policy: "sparkxd", unitBytes: geom.ColumnBytes, units: units, rows: rows}, nil
}

// AllSafe returns a safe-flag slice marking every subarray usable —
// useful for isolating the mapping-order effect from the safety filter.
func AllSafe(geom dram.Geometry) []bool {
	s := make([]bool, geom.SubarrayCount())
	for i := range s {
		s[i] = true
	}
	return s
}

// Validate checks that the layout has one row per Columns units, that
// every row starts at column 0 inside the geometry, and that no row is
// used twice (a layout must be an injection).
func (l *Layout) Validate() error {
	if l.units < 0 || len(l.rows) != UnitsFor(l.units, l.Geom.Columns) {
		return fmt.Errorf("mapping: %d rows for %d units of %d columns", len(l.rows), l.units, l.Geom.Columns)
	}
	seen := make(map[int64]struct{}, len(l.rows))
	for r, c := range l.rows {
		u := r * l.Geom.Columns
		if c.Column != 0 || !c.Valid(l.Geom) {
			return fmt.Errorf("mapping: unit %d at invalid coord %v", u, c)
		}
		k := l.Geom.Encode(c)
		if _, dup := seen[k]; dup {
			return fmt.Errorf("mapping: unit %d reuses coord %v", u, c)
		}
		seen[k] = struct{}{}
	}
	return nil
}
