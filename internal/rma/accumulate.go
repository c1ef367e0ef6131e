package rma

import (
	"rmarace/internal/access"
	"rmarace/internal/obs/span"
)

// Accumulate performs an MPI_Accumulate: it combines n bytes of src at
// srcOff into target's window at targetOff with the reduction op,
// element-wise over 8-byte little-endian words (n must be a multiple of
// 8). The target side is an atomic read-modify-write: overlapping
// accumulates that use the same operation never race (§2.1 property 3),
// while any overlapping put, get or local access still does. This
// operation extends the paper's evaluation, which covers MPI_Put and
// MPI_Get only; the legacy analyzer conservatively flags concurrent
// accumulates, one of its documented limitations.
func (w *Win) Accumulate(target, targetOff int, src *Buffer, srcOff, n int, op access.AccumOp, dbg access.Debug) error {
	_, err := w.issue(oneSided{kind: span.KindAccum, target: target, targetOff: targetOff, n: n, local: src, localOff: srcOff, op: op}, dbg)
	return err
}

// FetchAndOp performs an MPI_Fetch_and_op on one 8-byte element: it
// atomically combines value into target's window at targetOff and
// returns the previous content. Like Accumulate, same-operation
// FetchAndOps never race with each other. It has no origin buffer, so
// only the target side is analysed.
func (w *Win) FetchAndOp(target, targetOff int, value uint64, op access.AccumOp, dbg access.Debug) (uint64, error) {
	return w.issue(oneSided{kind: span.KindAccum, target: target, targetOff: targetOff, n: 8, op: op, operand: value}, dbg)
}

func applyAccum(op access.AccumOp, cur, val uint64) uint64 {
	switch op {
	case access.AccumSum:
		return cur + val
	case access.AccumReplace:
		return val
	case access.AccumMax:
		if val > cur {
			return val
		}
		return cur
	case access.AccumMin:
		if val < cur {
			return val
		}
		return cur
	case access.AccumBand:
		return cur & val
	}
	return cur
}

// Fence completes an active-target synchronisation phase
// (MPI_Win_fence): it is collective, completes every outstanding
// one-sided operation on the window and separates access epochs. A
// window alternating Fence calls runs each phase as one analysis epoch.
func (w *Win) Fence() error {
	if w.epochOpen {
		if err := w.UnlockAll(); err != nil {
			return err
		}
	}
	return w.LockAll()
}

// FenceEnd closes the final fence phase without opening a new epoch.
func (w *Win) FenceEnd() error {
	if !w.epochOpen {
		return ErrNoEpoch
	}
	return w.UnlockAll()
}
