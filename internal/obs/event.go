// Package obs is the simulator's observability layer: typed pipeline
// events, pluggable trace sinks (text narrator, JSONL, Chrome trace_event),
// and a counters/metrics registry with JSON snapshots.
//
// The event taxonomy mirrors the paper's Figure 7 narrative (see DESIGN.md
// §8): every cycle-level incident of the dual-engine machine — issues,
// stalls, CCB buffering, verification, compensation flushes and
// re-executions — is one Event value. Emitters hold a nil-checkable
// EventSink and build an Event only when a sink is attached, so the
// disabled path costs a single pointer compare and zero allocations.
package obs

import (
	"fmt"
	"strings"

	"vliwvp/internal/ir"
)

// Engine identifies which of the two engines produced an event.
type Engine uint8

const (
	// EngineVLIW is the main VLIW Engine (issue, stalls, checks).
	EngineVLIW Engine = iota
	// EngineCCE is the Compensation Code Engine (flushes, re-executions).
	EngineCCE
)

// String returns the engine's short display name.
func (e Engine) String() string {
	if e == EngineCCE {
		return "CCE"
	}
	return "VLIW"
}

// Kind classifies a pipeline event.
type Kind uint8

const (
	// KindStallSync: the VLIW Engine stalled on the Synchronization
	// register (Wait and Busy carry the masks).
	KindStallSync Kind = iota
	// KindStallCCB: the VLIW Engine stalled on a full Compensation Code
	// Buffer.
	KindStallCCB
	// KindStallScore: the VLIW Engine stalled on the register scoreboard
	// (a pending write-back of a source or destination register).
	KindStallScore
	// KindStallBarrier: the VLIW Engine stalled draining speculation at a
	// call/return barrier.
	KindStallBarrier
	// KindLdPredIssue: a load-prediction op issued; its Synchronization
	// bit is now set. Predicted carries the supplied value (dynamic
	// engine only).
	KindLdPredIssue
	// KindCheckIssue: a check-prediction op issued; Done is the cycle its
	// verification completes and Correct the verdict.
	KindCheckIssue
	// KindPlainIssue: a speculative op whose predictions had all verified
	// correct before issue, so it issued as a plain operation.
	KindPlainIssue
	// KindBufferCCB: a speculative op was captured in the Compensation
	// Code Buffer; Operands carries its operand states (Table 1/2
	// notation).
	KindBufferCCB
	// KindCCEFlush: the Compensation Code Engine discarded a
	// correctly-speculated entry.
	KindCCEFlush
	// KindCCEExecute: the Compensation Code Engine re-executed a
	// mis-speculated entry; Done is the completion cycle, Bit the
	// Synchronization bit that clears.
	KindCCEExecute
	// KindInstrIssue: the dynamic engine issued one long instruction
	// (Func, Block, Instr locate it).
	KindInstrIssue
	// KindCheckResolve: a dynamic check completed; Predicted and Actual
	// carry the compared values, Correct the verdict.
	KindCheckResolve
	// KindRegWrite: a register write-back landed (Reg, Value, Seq).
	KindRegWrite
	// KindRegWriteSuppressed: a stale write-back lost the write-port
	// arbitration to a younger writer (Seq vs LastSeq).
	KindRegWriteSuppressed
	// KindMemHit: a demand load hit the first-level D-cache (Addr, Lat;
	// Level is 1).
	KindMemHit
	// KindMemMiss: a demand load missed the first-level D-cache; Level is
	// the 1-based serving level, 0 for main memory (Addr, Lat).
	KindMemMiss
	// KindMemPrefetch: the stride-stream prefetcher issued a line fill
	// (Addr; Site is the training load site).
	KindMemPrefetch
	// KindStallIFetch: the VLIW Engine stalled on an instruction fetch
	// (emitted once per stalled cycle, like the other stall kinds).
	KindStallIFetch
	// KindPredSuppress: a load-prediction op issued with its prediction
	// suppressed by the runtime confidence gate (emitted INSTEAD of
	// KindLdPredIssue; Predicted carries the untrusted value). The site's
	// check will take the repair path regardless of the comparison.
	KindPredSuppress
	// KindBranchMispredict: the modeled direction predictor called a
	// conditional branch wrong (Func and Block locate the branch, Correct
	// is false by definition; Predicted carries the predicted direction as
	// 0/1). The terminating block's unresolved LdPred state flushes.
	KindBranchMispredict
	// KindBranchFlush: a branch mispredict flushed one piece of in-flight
	// speculation. Two forms: an unresolved prediction site (VLIW engine,
	// Site locates it; its check takes the repair path regardless of the
	// comparison), or a verified compensation-buffer entry squashed
	// wholesale with the wrong path instead of draining through the CCE
	// at one entry per cycle (CCE engine, Op identifies the entry).
	KindBranchFlush
)

var kindNames = [...]string{
	KindStallSync:          "stall.sync",
	KindStallCCB:           "stall.ccb",
	KindStallScore:         "stall.scoreboard",
	KindStallBarrier:       "stall.barrier",
	KindLdPredIssue:        "issue.ldpred",
	KindCheckIssue:         "issue.check",
	KindPlainIssue:         "issue.plain",
	KindBufferCCB:          "issue.buffer",
	KindCCEFlush:           "cce.flush",
	KindCCEExecute:         "cce.execute",
	KindInstrIssue:         "issue.instr",
	KindCheckResolve:       "check.resolve",
	KindRegWrite:           "reg.write",
	KindRegWriteSuppressed: "reg.write.suppressed",
	KindMemHit:             "mem.hit",
	KindMemMiss:            "mem.miss",
	KindMemPrefetch:        "mem.prefetch",
	KindStallIFetch:        "stall.ifetch",
	KindPredSuppress:       "issue.ldpred.suppressed",
	KindBranchMispredict:   "branch.mispredict",
	KindBranchFlush:        "branch.flush",
}

// String returns the kind's stable wire name (used by the JSONL and Chrome
// sinks).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts Kind.String (JSONL round-trips).
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// OperandState is one operand's verification state in the paper's
// Table 1/2 notation.
type OperandState uint8

const (
	// StateC: the operand value is verified correct.
	StateC OperandState = iota
	// StateR: the operand's prediction verified wrong; a recompute is
	// needed (or pending).
	StateR
	// StatePN: a predicted value, not yet verified.
	StatePN
	// StateRN: a speculatively computed value, not yet verified.
	StateRN
)

// String returns the paper's two-letter notation.
func (s OperandState) String() string {
	switch s {
	case StateC:
		return "C"
	case StateR:
		return "R"
	case StatePN:
		return "PN"
	default:
		return "RN"
	}
}

// OperandStateFromString inverts OperandState.String.
func OperandStateFromString(s string) (OperandState, bool) {
	switch s {
	case "C":
		return StateC, true
	case "R":
		return StateR, true
	case "PN":
		return StatePN, true
	case "RN":
		return StateRN, true
	}
	return 0, false
}

// SiteState pairs a block-local prediction-site index with an operand
// state.
type SiteState struct {
	Site  int
	State OperandState
}

// Event is one typed pipeline incident. Fields beyond Cycle/Engine/Kind
// are populated per kind (see the Kind constants); unused fields are zero.
type Event struct {
	Cycle  int64
	Engine Engine
	Kind   Kind
	// Op is the operation involved, nil for pure stalls and instruction
	// issues.
	Op *ir.Op
	// Bit is the Synchronization bit set or cleared (-1 when absent).
	Bit int
	// Done is the cycle a check or recompute completes.
	Done int64
	// Correct is the verification verdict (check events).
	Correct bool
	// Gated marks a KindCheckResolve of a confidence-suppressed site: the
	// repair path is taken regardless of Correct (which stays the truthful
	// comparison verdict).
	Gated bool
	// Flushed marks a KindCheckResolve of a site whose in-flight prediction
	// was discarded by a branch mispredict: the repair path is taken
	// regardless of Correct (like Gated, it is not rendered by Narrate so
	// text traces stay byte-stable).
	Flushed bool
	// Wait and Busy are the Synchronization-register masks of a sync
	// stall.
	Wait, Busy uint64
	// Operands are the buffered op's operand states (KindBufferCCB).
	Operands []SiteState
	// Func, Block and Instr locate a dynamic-engine instruction issue.
	Func         string
	Block, Instr int
	// Site is the prediction-site ID of a dynamic check.
	Site int
	// Predicted and Actual are the compared values of a check (or the
	// supplied value of a LdPred), as the signed integers the text trace
	// always printed.
	Predicted, Actual int64
	// Reg, Value, Seq and LastSeq describe register write-back events.
	Reg          ir.Reg
	Value        int64
	Seq, LastSeq int64
	// Addr, Lat and Level describe memory-hierarchy events: the word
	// address accessed, the access's total latency, and the 1-based cache
	// level that served it (0 = main memory).
	Addr  int64
	Lat   int64
	Level int
}

// EventSink receives pipeline events. Implementations must not retain e or
// e.Operands past the call: emitters may reuse the backing storage.
type EventSink interface {
	Event(e *Event)
}

// TextFunc adapts a plain line callback into an EventSink: each event is
// rendered by Narrate, so attaching one to core.Timing.Sink or
// core.Simulator.Sink yields the simulator's text trace.
type TextFunc func(cycle int64, line string)

// Event renders and forwards the event.
func (f TextFunc) Event(e *Event) { f(e.Cycle, Narrate(e)) }

// Narrate renders an event as the simulator's original trace line —
// byte-for-byte the strings the pre-typed-event tracer produced, so text
// traces stay diffable across versions.
func Narrate(e *Event) string {
	switch e.Kind {
	case KindStallSync:
		return fmt.Sprintf("VLIW stall: wait mask %#x against busy %#x", e.Wait, e.Busy)
	case KindStallCCB:
		return "VLIW stall: CCB full"
	case KindStallScore:
		return "VLIW stall: scoreboard"
	case KindStallBarrier:
		return "VLIW stall: call/return barrier"
	case KindLdPredIssue:
		return fmt.Sprintf("issue %v: predicted value loaded, bit %d set", e.Op, e.Bit)
	case KindCheckIssue:
		return fmt.Sprintf("issue %v: verification completes cycle %d (%s)", e.Op, e.Done, verdict(e.Correct))
	case KindPlainIssue:
		return fmt.Sprintf("issue %v: predictions already verified, plain issue", e.Op)
	case KindBufferCCB:
		return fmt.Sprintf("issue %v: buffered in CCB (operand states %s)", e.Op, FormatOperands(e.Operands))
	case KindCCEFlush:
		return fmt.Sprintf("CCE flush %v: all operands correct", e.Op)
	case KindCCEExecute:
		return fmt.Sprintf("CCE execute %v: recompute completes cycle %d, bit %d clears", e.Op, e.Done, e.Bit)
	case KindInstrIssue:
		return fmt.Sprintf("%s b%d i%d issue", e.Func, e.Block, e.Instr)
	case KindCheckResolve:
		return fmt.Sprintf("check site %d: predicted %d actual %d", e.Site, e.Predicted, e.Actual)
	case KindRegWrite:
		return fmt.Sprintf("write %v=%d (seq %d)", e.Reg, e.Value, e.Seq)
	case KindRegWriteSuppressed:
		return fmt.Sprintf("write %v=%d SUPPRESSED (seq %d != last %d)", e.Reg, e.Value, e.Seq, e.LastSeq)
	case KindMemHit:
		return fmt.Sprintf("mem load @%d: L1 hit (%d cycles)", e.Addr, e.Lat)
	case KindMemMiss:
		if e.Level == 0 {
			return fmt.Sprintf("mem load @%d: miss to memory (%d cycles)", e.Addr, e.Lat)
		}
		return fmt.Sprintf("mem load @%d: miss, served by L%d (%d cycles)", e.Addr, e.Level, e.Lat)
	case KindMemPrefetch:
		return fmt.Sprintf("mem prefetch @%d issued (site %d)", e.Addr, e.Site)
	case KindStallIFetch:
		return "VLIW stall: instruction fetch"
	case KindPredSuppress:
		return fmt.Sprintf("issue %v: prediction suppressed (unconfident), bit %d set", e.Op, e.Bit)
	case KindBranchMispredict:
		return fmt.Sprintf("%s b%d branch MISPREDICT (predicted %d)", e.Func, e.Block, e.Predicted)
	case KindBranchFlush:
		if e.Op != nil {
			return fmt.Sprintf("branch flush: buffered %v squashed", e.Op)
		}
		return fmt.Sprintf("branch flush site %d: in-flight prediction discarded", e.Site)
	}
	return fmt.Sprintf("event %s", e.Kind)
}

func verdict(correct bool) string {
	if correct {
		return "correct"
	}
	return "MISPREDICT"
}

// FormatOperands renders operand states in the trace's "site0:RN,site1:C"
// form ("C" when there are none — a fully verified operand set).
func FormatOperands(ops []SiteState) string {
	if len(ops) == 0 {
		return "C"
	}
	var sb strings.Builder
	for i, o := range ops {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "site%d:%s", o.Site, o.State)
	}
	return sb.String()
}
