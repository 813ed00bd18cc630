package core

import "vliwvp/internal/ir"

// The event wheel is the engine's scheduler: a fixed ring of typed-event
// slots. Ordering contract (pinned by the timing digest): events scheduled
// for the same cycle execute in insertion order. Far-future events past
// the wheel's horizon spill into an overflow list; because the current
// cycle only moves forward, every overflow event for a cycle was
// necessarily inserted before any ring event for that cycle, so draining
// overflow first preserves insertion order.

// wevKind discriminates the typed events the engine schedules.
type wevKind uint8

const (
	// wevWrite lands a register write: an LdPred prediction, a return
	// value, or a speculative result. A plain write-back, which execValue
	// stored at issue, is an event only in a traced run (for its
	// reg.write event); untraced, writePlain keeps it off the wheel, so
	// it pins no frame.
	wevWrite wevKind = iota
	// wevClearBits clears Synchronization bits (CCE flush completion).
	wevClearBits
	// wevCheckResolve completes a check-prediction load: verdict, bit
	// clear, predictor update, and (on a mispredict) the corrective write.
	wevCheckResolve
	// wevCCEWriteback lands a compensation re-execution result and clears
	// the entry's bit if verification has not already done so.
	wevCCEWriteback
)

// wev is one scheduled event. The meaning of the fields depends on kind;
// unused fields are zero. fr and inst pin their pooled objects while the
// event is in flight (see the pooling invariants in engine.go).
type wev struct {
	kind wevKind
	fr   *frame
	inst *blockInst
	op   *ir.Op // tracing identity (check resolve)
	li   int32  // block-local site index (check resolve)
	reg  ir.Reg
	val  uint64
	seq  int64
	mask uint64 // Synchronization bits to clear
}

// wheelSlots sizes the ring. It must be a power of two and exceed every
// machine latency plus one; stock latencies top out at 8 (Div/FDiv), so
// overflow is reserved for adversarial MaxCycles-scale schedules and
// tests.
const wheelSlots = 64

type eventWheel struct {
	slots   [wheelSlots][]wev
	pending int // scheduled but not yet executed events
	// overflow holds events scheduled past the ring horizon, in insertion
	// order (scanned linearly; empty in practice).
	overflow []farEvent
}

type farEvent struct {
	cycle int64
	ev    wev
}

// schedule enqueues ev for the given cycle; now is the engine's current
// cycle. The caller handles cycle <= now (immediate execution) itself.
func (w *eventWheel) schedule(now, cycle int64, ev wev) {
	w.pending++
	if cycle-now < wheelSlots {
		i := cycle & (wheelSlots - 1)
		w.slots[i] = append(w.slots[i], ev)
		return
	}
	w.overflow = append(w.overflow, farEvent{cycle: cycle, ev: ev})
}

// run executes every event scheduled for the cycle, in insertion order,
// via f. Handlers must not schedule new events for the same cycle (the
// engine never does; immediate effects are applied directly).
func (w *eventWheel) run(cycle int64, f func(*wev)) {
	if len(w.overflow) > 0 {
		kept := w.overflow[:0]
		for i := range w.overflow {
			fe := &w.overflow[i]
			if fe.cycle == cycle {
				w.pending--
				f(&fe.ev)
				continue
			}
			kept = append(kept, *fe)
		}
		w.overflow = kept
	}
	slot := &w.slots[cycle&(wheelSlots-1)]
	for i := range *slot {
		w.pending--
		f(&(*slot)[i])
	}
	*slot = (*slot)[:0]
}

// len reports the number of in-flight events (drives the end-of-run drain
// loop).
func (w *eventWheel) len() int { return w.pending }

// reset drains the wheel without executing anything: every slot is
// truncated (capacity retained for the zero-alloc steady state) and the
// overflow list emptied. Pin counts held by dropped events are the
// caller's problem — the engine reset releases or abandons the affected
// pooled objects itself.
func (w *eventWheel) reset() {
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.overflow = w.overflow[:0]
	w.pending = 0
}
