// Hot-path buffer pools: payload float slices (by power-of-two size class)
// and delivered message envelopes. The iterative solvers send thousands of
// messages per solve, and before pooling every one of them allocated a
// payload copy in mp.SendFloats, a Message envelope in SendFate and a
// Packet on receive — ~36k allocations per gateway solve on cluster3, the
// scenario core.TestTopologyExchangeAllocBudget now holds under 2000. The
// pools recycle all three.
//
// Ownership protocol:
//
//   - GetFloats hands out a buffer owned by the caller; passing it as a Send
//     payload transfers ownership to the receiver along with the message.
//   - The receiver returns the buffer with PutFloats once the payload has
//     been copied out or fully consumed; a lost payload stays with the
//     sender (mp returns it once it gives up on the message).
//   - ReleaseMessage returns a delivered envelope after the payload has been
//     extracted (mp does this when converting to a Packet).
//   - Returning a buffer is always optional: an unreturned buffer is simply
//     collected by the GC, so code that lets payloads escape (Gather results
//     handed to the caller, stashed packets) just skips the Put.
//
// No locking: the pools are per scheduler lane, and every pool operation
// happens at a point serialized within the owning lane — inside the lane's
// unique running process or in the lane loop between commits, which the
// coroutine switch keeps on one thread of control. A buffer or envelope
// that crosses lanes inside a message simply changes pools: the receiver
// returns it to its own lane's pool, which is the only lane that will hand
// it out again. ComputeFunc/ComputeDeferred segments run concurrently with
// the scheduler and therefore must not touch the pools (the same rule that
// bars them from all simulator primitives).
//
// Ownership guards: a double ReleaseMessage always panics (the envelope
// carries a pooled bit). The tests' poolCheck mode additionally arms the
// float-pool guard: PutFloats panics on a double put and
// poisons the returned buffer with NaNs, so a use-after-put surfaces as
// NaN propagation instead of silent cross-message corruption.

package vgrid

import (
	"fmt"
	"math"
	"math/bits"
)

// maxPoolClass bounds the pooled size classes: slices up to 2^maxPoolClass
// floats (128 MiB) are recycled, larger ones go to the GC.
const maxPoolClass = 24

// sizeClass returns the smallest power-of-two exponent c with n ≤ 1<<c.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// checkGet records that a pooled buffer left a pool (poolCheck mode).
func (e *Engine) checkGet(buf []float64) {
	e.poolMu.Lock()
	delete(e.poolOut, &buf[0])
	e.poolMu.Unlock()
}

// checkPut validates that a buffer is not already pooled and poisons it
// (poolCheck mode). The identity key is the backing array's first element,
// stable across reslicing.
func (e *Engine) checkPut(buf []float64) {
	e.poolMu.Lock()
	if e.poolOut[&buf[0]] {
		e.poolMu.Unlock()
		panic(fmt.Sprintf("vgrid: PutFloats: double put of a pooled buffer (cap %d)", cap(buf)))
	}
	e.poolOut[&buf[0]] = true
	e.poolMu.Unlock()
	for i := range buf {
		buf[i] = math.NaN()
	}
}

// GetFloats returns a length-n float slice with power-of-two capacity from
// the lane's payload pool (allocating if the pool is empty). The caller
// owns the buffer until it passes it as a Send payload or returns it with
// PutFloats. Must be called from simulator context (the process body or the
// scheduler), never from a ComputeFunc segment.
func (p *Proc) GetFloats(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c > maxPoolClass || p.ln == nil {
		return make([]float64, n)
	}
	free := &p.ln.floatFree[c]
	if k := len(*free); k > 0 {
		buf := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		if p.eng.poolCheck {
			p.eng.checkGet(buf)
		}
		return buf[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutFloats returns a buffer obtained from GetFloats to the lane's payload
// pool. The caller must not touch the slice afterwards. Buffers whose
// capacity is not an exact power of two (not pool-born) are silently
// dropped to the GC, so Put is safe on any float slice.
func (p *Proc) PutFloats(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1
	if cl > maxPoolClass || p.ln == nil {
		return
	}
	if p.eng.poolCheck {
		p.eng.checkPut(buf[:c])
	}
	p.ln.floatFree[cl] = append(p.ln.floatFree[cl], buf[:c])
}

// getMessage returns a zeroed-or-recycled message envelope from the lane's
// pool.
func (ln *lane) getMessage() *Message {
	if k := len(ln.msgFree); k > 0 {
		m := ln.msgFree[k-1]
		ln.msgFree[k-1] = nil
		ln.msgFree = ln.msgFree[:k-1]
		m.pooled = false
		return m
	}
	return &Message{}
}

// ReleaseMessage returns a delivered message envelope to the lane's pool
// after its payload has been extracted. The caller must not touch the
// message afterwards; releasing is optional (an unreleased envelope is
// GC'd). Must be called from simulator context, and only once per message:
// a second release of the same envelope panics.
func (p *Proc) ReleaseMessage(m *Message) {
	if m.pooled {
		panic("vgrid: ReleaseMessage: envelope already released (double put or use after put)")
	}
	*m = Message{pooled: true}
	if p.ln == nil {
		return
	}
	p.ln.msgFree = append(p.ln.msgFree, m)
}
