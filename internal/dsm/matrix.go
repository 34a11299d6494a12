package dsm

import (
	"filaments/internal/kernel"
)

// Matrix describes a dense row-major float64 matrix in shared memory. It is
// plain metadata — the same Matrix value is used on every node, with access
// going through each node's own DSM, exactly as shared pointers work in the
// paper's replicated address space.
type Matrix struct {
	Base Addr
	Rows int
	Cols int
}

// Bytes returns the matrix's size in bytes.
func (m Matrix) Bytes() int64 { return int64(m.Rows) * int64(m.Cols) * 8 }

// StripedRows is the placement of a rows×cols matrix whose pages are owned
// in horizontal strips: node k of n owns the pages holding rows
// [k*rows/n, (k+1)*rows/n). Rows that share a page go to the strip of the
// page's first row, like the paper's per-node strip distribution of the
// Jacobi grids.
func StripedRows(rows, cols, nodes int) AllocOpts {
	rowBytes := int64(cols) * 8
	return AllocOpts{
		OwnerByPage: func(page int) kernel.NodeID {
			row := int(int64(page) * PageSize / rowBytes)
			if row >= rows {
				row = rows - 1
			}
			return kernel.NodeID(StripOf(row, rows, nodes))
		},
	}
}

// Addr returns the address of element (i, j).
func (m Matrix) Addr(i, j int) Addr {
	return m.Base + Addr(i*m.Cols+j)*8
}

// At reads element (i, j) through d.
func (m Matrix) At(d *DSM, t kernel.Thread, i, j int) float64 {
	return d.ReadF64(t, m.Addr(i, j))
}

// Set writes element (i, j) through d.
func (m Matrix) Set(d *DSM, t kernel.Thread, i, j int, v float64) {
	d.WriteF64(t, m.Addr(i, j), v)
}

// StripOf returns which of n equal horizontal strips row i of rows belongs
// to (the last strip absorbs the remainder).
func StripOf(i, rows, n int) int {
	per := rows / n
	if per == 0 {
		per = 1
	}
	s := i / per
	if s >= n {
		s = n - 1
	}
	return s
}

// StripBounds returns the row range [lo, hi) of strip k of n over rows.
func StripBounds(k, rows, n int) (lo, hi int) {
	per := rows / n
	lo = k * per
	hi = lo + per
	if k == n-1 {
		hi = rows
	}
	return lo, hi
}
