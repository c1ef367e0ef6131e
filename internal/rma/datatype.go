package rma

import (
	"fmt"

	"rmarace/internal/access"
	"rmarace/internal/obs/span"
)

// Vector describes an MPI vector datatype: Count blocks of BlockLen
// bytes separated by Stride bytes (start to start). It extends the
// paper's model, which "only consider[s] consecutive accesses": a
// one-sided operation with a vector type touches Count disjoint
// intervals, each analysed separately — the natural companion of the
// strided-merging extension, whose regular sections re-compress exactly
// these access patterns.
type Vector struct {
	BlockLen int
	Stride   int
	Count    int
}

// validate checks the type against a buffer region starting at off.
func (v Vector) validate() error {
	if v.BlockLen <= 0 || v.Count <= 0 {
		return fmt.Errorf("rma: vector datatype with block %d, count %d", v.BlockLen, v.Count)
	}
	if v.Stride < v.BlockLen {
		return fmt.Errorf("rma: vector stride %d smaller than block length %d", v.Stride, v.BlockLen)
	}
	return nil
}

// extent returns the bytes spanned from the first block's start to the
// last block's end.
func (v Vector) extent() int { return (v.Count-1)*v.Stride + v.BlockLen }

// PutVector performs an MPI_Put with a vector datatype on both sides:
// block k of src (at srcOff + k·Stride) is written to target's window
// at targetOff + k·Stride. Each block is one origin-side read and one
// target-side write access.
func (w *Win) PutVector(target, targetOff int, src *Buffer, srcOff int, v Vector, dbg access.Debug) error {
	return w.issueVector(oneSided{kind: span.KindPut, target: target, targetOff: targetOff, local: src, localOff: srcOff}, v, dbg)
}

// GetVector performs an MPI_Get with a vector datatype on both sides.
func (w *Win) GetVector(dst *Buffer, dstOff, target, targetOff int, v Vector, dbg access.Debug) error {
	return w.issueVector(oneSided{kind: span.KindGet, target: target, targetOff: targetOff, local: dst, localOff: dstOff}, v, dbg)
}

// issueVector issues o once per block of v. The whole extent is checked
// first, so no block fails a check after earlier blocks were issued.
func (w *Win) issueVector(o oneSided, v Vector, dbg access.Debug) error {
	if err := v.validate(); err != nil {
		return err
	}
	o.n = v.extent()
	if err := w.check(o); err != nil {
		return err
	}
	o.n = v.BlockLen
	for k := 0; k < v.Count; k++ {
		if _, err := w.issue(o, dbg); err != nil {
			return err
		}
		o.targetOff += v.Stride
		o.localOff += v.Stride
	}
	return nil
}
