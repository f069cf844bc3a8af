package engine

import (
	"fmt"

	"aspen/internal/core"
)

// Options configures an Exec. It is the hook-free subset of
// core.ExecOptions: anything needing per-activation observation (hooks,
// fault injection) belongs on the simulator.
type Options struct {
	// StackDepth overrides the program's stack depth (0 = program
	// default).
	StackDepth int
	// EpsilonBudget bounds consecutive ε-activations between two input
	// symbols (0 = the same default formula core uses). Exceeding it
	// returns core.ErrEpsilonLimit.
	EpsilonBudget int
	// CollectReports records each report event in Result.Reports.
	CollectReports bool
}

// Exec is an in-progress run of a Program. Its stepping functions
// mirror core.Execution exactly — same counters, same error classes,
// same error strings — so the two backends are interchangeable behind
// stream.Parser and differential-testable state for state.
type Exec struct {
	p *Program

	cur      int32
	stack    []core.Symbol
	depth    int
	pos      int
	res      core.Result
	epsSeq   int
	epsLimit int
	collect  bool
}

// NewExec creates a fresh execution of p positioned at its start state
// with an empty stack (⊥ pre-loaded).
func NewExec(p *Program, opts Options) *Exec {
	depth := opts.StackDepth
	if depth == 0 {
		depth = p.stackDepth
	}
	lim := opts.EpsilonBudget
	if lim == 0 {
		// Same default as core.NewExecution: legitimate ε-cascades are
		// bounded by stack contents plus per-state work.
		lim = 4*(p.numStates+depth) + 64
	}
	e := &Exec{
		p:        p,
		cur:      p.start,
		stack:    make([]core.Symbol, 1, 16),
		depth:    depth,
		epsLimit: lim,
		collect:  opts.CollectReports,
	}
	e.stack[0] = core.BottomOfStack
	e.res.FinalState = core.StateID(p.start)
	return e
}

// Program returns the program this execution runs.
func (e *Exec) Program() *Program { return e.p }

// Reset rewinds the execution to the program's start configuration
// without reallocating (the pooling contract core.Execution.Reset
// documents).
func (e *Exec) Reset() {
	e.cur = e.p.start
	e.stack = e.stack[:1]
	e.stack[0] = core.BottomOfStack
	e.pos = 0
	e.epsSeq = 0
	e.res = core.Result{FinalState: core.StateID(e.p.start)}
}

// Pos returns the number of input symbols consumed so far.
func (e *Exec) Pos() int { return e.pos }

// Current returns the active state.
func (e *Exec) Current() core.StateID { return core.StateID(e.cur) }

// TOS returns the current top-of-stack symbol.
func (e *Exec) TOS() core.Symbol { return e.stack[len(e.stack)-1] }

// StackLen returns the number of symbols on the stack above ⊥.
func (e *Exec) StackLen() int { return len(e.stack) - 1 }

// tosClass returns the stack class of the top-of-stack symbol.
func (e *Exec) tosClass() uint32 { return uint32(e.p.stackClass[e.stack[len(e.stack)-1]]) }

// match returns the candidate of the input run starting at cands[k]
// whose stack-class mask holds tc, or the sentinel cands[0] (no next
// state) when none does.
func (p *Program) match(k, tc uint32) entry {
	for p.candMask[k<<p.maskShift|tc>>6]>>(tc&63)&1 == 0 {
		if p.cands[k].act&actLast != 0 {
			return p.cands[0]
		}
		k++
	}
	return p.cands[k]
}

// The stack faults of activating state t, with core.Execution's exact
// strings (serve responses embed them, and the two backends must
// answer byte-identically).
func (p *Program) underflow(t int32, n, depth int) error {
	return fmt.Errorf("%w: state %d (%s) pops %d with depth %d",
		core.ErrStackUnderflow, t, p.labels[t], n, depth)
}

func (p *Program) overflow(t int32, depth int) error {
	return fmt.Errorf("%w: state %d (%s) at depth %d",
		core.ErrStackOverflow, t, p.labels[t], depth)
}

func epsLimit(cur int32, seq int) error {
	return fmt.Errorf("%w: state %d after %d ε-steps", core.ErrEpsilonLimit, cur, seq)
}

// activate performs the entry actions of en, an ε-move when eps is
// set, mirroring core.Execution.activate field for field.
func (e *Exec) activate(en entry, eps bool) error {
	a := en.act
	if n := int(a & actPop); n > 0 {
		if n > len(e.stack)-1 {
			return e.p.underflow(en.next, n, len(e.stack)-1)
		}
		e.stack = e.stack[:len(e.stack)-n]
	}
	if a&actPush != 0 {
		if len(e.stack)-1 >= e.depth {
			return e.p.overflow(en.next, e.depth)
		}
		e.stack = append(e.stack, core.Symbol(a>>actPushShift))
	}
	if d := len(e.stack) - 1; d > e.res.MaxStackDepth {
		e.res.MaxStackDepth = d
	}
	e.cur = en.next
	e.res.FinalState = core.StateID(en.next)
	e.res.Steps++
	if eps {
		e.res.EpsilonStalls++
		e.epsSeq++
	} else {
		e.epsSeq = 0
	}
	if a&actAccept != 0 {
		e.res.ReportCount++
		if e.collect {
			e.res.Reports = append(e.res.Reports,
				core.Report{Pos: e.pos, State: core.StateID(en.next), Code: e.p.report[en.next]})
		}
	}
	return nil
}

// StepEpsilon takes one enabled ε-transition; false when none is
// enabled.
func (e *Exec) StepEpsilon() (bool, error) {
	en := e.p.eps[uint32(e.cur)*e.p.nsc+e.tosClass()]
	if en.next == noState {
		return false, nil
	}
	if e.epsSeq >= e.epsLimit {
		return false, epsLimit(e.cur, e.epsSeq)
	}
	return true, e.activate(en, true)
}

// DrainEpsilon takes ε-transitions until none is enabled, returning the
// number taken.
func (e *Exec) DrainEpsilon() (int, error) {
	n := 0
	for {
		ok, err := e.StepEpsilon()
		if !ok || err != nil {
			return n, err
		}
		n++
	}
}

// Feed consumes one input symbol (ε-moves must be drained first). It
// returns false when no successor is enabled: the machine jams.
func (e *Exec) Feed(sym core.Symbol) (bool, error) {
	p := e.p
	en := p.match(p.inStart[uint32(e.cur)*p.nic+uint32(p.codeClass[sym])], e.tosClass())
	if en.next == noState {
		return false, nil
	}
	// Count the symbol before activating, exactly as core does: a
	// report (or stack fault) fired by the consuming state sees the
	// post-consumption position.
	e.pos++
	e.res.Consumed = e.pos
	if err := e.activate(en, false); err != nil {
		return false, err
	}
	return true, nil
}

// FeedAll consumes codes in order — drain ε-moves, feed, per symbol —
// and reports how many were consumed, whether the machine jammed on
// codes[fed], and any machine fault (the faulting symbol stays
// uncounted). It is stream.Runner-shaped, the bulk path stream.Parser
// feeds each chunk through.
//
// It is the fused hot loop: the drain/feed sequence of the stepping
// functions above with the execution state in locals, written back
// once per call. The top of stack is held as its class: a push sets it
// from the action word, and only a pop reloads it through the
// symbol→class map. Its observable behavior — counters,
// reports, error classes, error strings, state left behind — is exactly
// that of DrainEpsilon+Feed per symbol; the differential suite pins
// this.
func (e *Exec) FeedAll(codes []core.Symbol) (fed int, jammed bool, err error) {
	p := e.p
	cur := uint32(e.cur)
	stack := e.stack
	tc := e.tosClass()
	pos := e.pos
	epsSeq := e.epsSeq
	stalls := e.res.EpsilonStalls
	maxDepth := e.res.MaxStackDepth
	reports := e.res.ReportCount

loop:
	for fed < len(codes) {
		for {
			en := p.eps[cur*p.nsc+tc]
			if en.next == noState {
				break
			}
			if epsSeq >= e.epsLimit {
				err = epsLimit(int32(cur), epsSeq)
				break loop
			}
			a := en.act
			if n := int(a & actPop); n > 0 {
				if n > len(stack)-1 {
					err = p.underflow(en.next, n, len(stack)-1)
					break loop
				}
				stack = stack[:len(stack)-n]
				tc = uint32(p.stackClass[stack[len(stack)-1]])
			}
			if a&actPush != 0 {
				if len(stack)-1 >= e.depth {
					err = p.overflow(en.next, e.depth)
					break loop
				}
				stack = append(stack, core.Symbol(a>>actPushShift))
				tc = a >> actClsShift & 0xff
			}
			if d := len(stack) - 1; d > maxDepth {
				maxDepth = d
			}
			cur = uint32(en.next)
			stalls++
			epsSeq++
			if a&actAccept != 0 {
				reports++
				if e.collect {
					e.res.Reports = append(e.res.Reports,
						core.Report{Pos: pos, State: core.StateID(cur), Code: p.report[cur]})
				}
			}
		}
		en := p.match(p.inStart[cur*p.nic+uint32(p.codeClass[codes[fed]])], tc)
		if en.next == noState {
			jammed = true
			break
		}
		pos++
		a := en.act
		if n := int(a & actPop); n > 0 {
			if n > len(stack)-1 {
				err = p.underflow(en.next, n, len(stack)-1)
				break
			}
			stack = stack[:len(stack)-n]
			tc = uint32(p.stackClass[stack[len(stack)-1]])
		}
		if a&actPush != 0 {
			if len(stack)-1 >= e.depth {
				err = p.overflow(en.next, e.depth)
				break
			}
			stack = append(stack, core.Symbol(a>>actPushShift))
			tc = a >> actClsShift & 0xff
		}
		if d := len(stack) - 1; d > maxDepth {
			maxDepth = d
		}
		cur = uint32(en.next)
		epsSeq = 0
		if a&actAccept != 0 {
			reports++
			if e.collect {
				e.res.Reports = append(e.res.Reports,
					core.Report{Pos: pos, State: core.StateID(cur), Code: p.report[cur]})
			}
		}
		fed++
	}

	e.cur = int32(cur)
	e.stack = stack
	e.pos = pos
	e.epsSeq = epsSeq
	// Every step taken is a stall or a fed code.
	e.res.Steps += stalls - e.res.EpsilonStalls + fed
	e.res.EpsilonStalls = stalls
	e.res.MaxStackDepth = maxDepth
	e.res.ReportCount = reports
	e.res.Consumed = pos
	e.res.FinalState = core.StateID(cur)
	return fed, jammed, err
}

// InAccept reports whether the active state is an accept state.
func (e *Exec) InAccept() bool { return e.p.accept[e.cur] }

// Result returns a snapshot of the run statistics so far.
func (e *Exec) Result() core.Result { return e.res }

// Checkpoint copies the execution's resumable state into cp and seals
// it — the same core.Checkpoint the simulator writes, so a session
// checkpointed under one backend restores under the other.
func (e *Exec) Checkpoint(cp *core.Checkpoint) {
	cp.Cur = core.StateID(e.cur)
	cp.Stack = append(cp.Stack[:0], e.stack...)
	cp.Pos = e.pos
	cp.EpsSeq = e.epsSeq
	reports := append(cp.Res.Reports[:0], e.res.Reports...)
	cp.Res = e.res
	cp.Res.Reports = reports
	cp.Seal()
}

// Restore rewinds the execution to cp after verifying the seal,
// refusing what core.Checkpoint.Check refuses exactly as
// core.Execution.Restore does.
func (e *Exec) Restore(cp *core.Checkpoint) error {
	if err := cp.Check(e.p.numStates, e.depth); err != nil {
		return err
	}
	e.cur = int32(cp.Cur)
	e.stack = append(e.stack[:0], cp.Stack...)
	e.pos = cp.Pos
	e.epsSeq = cp.EpsSeq
	reports := append(e.res.Reports[:0], cp.Res.Reports...)
	e.res = cp.Res
	e.res.Reports = reports
	return nil
}
