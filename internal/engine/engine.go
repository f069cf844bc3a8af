// Package engine is the fast-path execution engine: an hDPDA lowered
// into flat class-indexed transition tables and stepped without any of
// the cycle-accurate simulator's per-cycle bookkeeping.
//
// The simulator (internal/core + internal/arch) exists to reproduce the
// paper's tables: it models ε-stall cycles, bank placement, fault
// injection, and carries an optional hook on every state activation.
// None of that belongs on a serving hot path. The engine keeps the
// machine semantics — byte-identical accept/reject decisions, report
// events, and error classes, pinned by differential tests and a fuzz
// target against core.Execution — and drops everything else:
//
//   - Dispatch is table lookup, not successor-list scan, over classes
//     rather than raw symbols. Compile partitions the 256 stack symbols
//     into the classes the states' stack labels tell apart, and the
//     input codes likewise by the input labels (a few dozen of each
//     for compiled grammars). An ε-move is one load from a dense
//     [state, TOS class] table; an input move indexes a dense
//     [state, code class] table that starts a short run of candidates,
//     each with a stack-class mask (almost always exactly one: a non-ε
//     state of a compiled grammar matches a single token code).
//   - Each entry carries its target's action word (pop count, push
//     symbol and class, accept bit), so a step reads no per-state
//     column. The stack holds raw symbols (checkpoints are the
//     simulator's); the hot loop holds the TOS class in a register,
//     takes it from the action word after a push and reloads it
//     through the symbol→class map only after a pop.
//   - No hooks, no fault injector, no per-cycle accounting beyond the
//     counters core.Result requires.
//   - Executions are poolable: any number of Execs share one immutable
//     Program, so the serving layer runs each request's document on its
//     own Exec, independently of every other (the paper's "hundreds of
//     different DPDAs in parallel", §IV-B).
//
// The simulator remains the ground truth: EXPERIMENTS.md numbers come
// from core/arch, and internal/serve falls back to it whenever a
// request needs execution hooks (chaos/verify guarding).
package engine

import (
	"fmt"

	"aspen/internal/core"
)

// An action word packs a dispatch target's entry actions, so a step
// reads them from the table entry that names the target instead of
// from per-state columns.
const (
	actPop       uint32 = 0xff   // bits 0–7: symbols popped
	actPush      uint32 = 0xff00 // bits 8–15: symbol pushed; 0 = no push (⊥ is never pushed)
	actPushShift        = 8
	actClsShift         = 16      // bits 16–23: stack class of the pushed symbol
	actAccept    uint32 = 1 << 24 // the target reports
	actLast      uint32 = 1 << 25 // input candidates: the last of its slot's run
)

// noState marks an empty dispatch entry.
const noState int32 = -1

// maxStates bounds the lowered machine so that state×class table
// indexes (at most 256 classes) stay within uint32. Real grammars are
// thousands of states; this is a structural sanity bound, not a
// capacity plan.
const maxStates = 1 << 22

// entry is one dispatch table slot: the target state and its action
// word.
type entry struct {
	next int32
	act  uint32
}

// Program is an hDPDA lowered into flat transition tables. It is
// immutable after Compile and shared by any number of concurrent Execs.
type Program struct {
	name       string
	numStates  int
	stackDepth int
	start      int32
	fp         uint64 // source machine fingerprint

	// stackClass maps each of the 256 stack symbols to its class:
	// symbols that every state's Stack label contains both or neither
	// of share one. It covers every byte, since a restored checkpoint
	// may carry symbols no state pushes. nsc is the class count.
	stackClass [256]uint8
	nsc        uint32
	// codeClass does the same for input codes over the non-ε states'
	// Input labels; nic is the class count.
	codeClass [256]uint8
	nic       uint32

	// eps is the ε-dispatch table: eps[state*nsc+tosClass] is the
	// enabled ε-successor, or noState. Exact because an ε-successor
	// discriminates only on TOS, and determinism guarantees at most one
	// per (state, TOS).
	eps []entry
	// Input dispatch: inStart[state*nic+codeClass] starts a run of
	// candidate successors in cands, ended by actLast. A candidate fires
	// when bit tosClass of its stack-class mask is set; the mask is
	// candMask[cand<<maskShift:][:1<<maskShift]. Slot 0 is a sentinel
	// with no next state and an empty mask, where every empty slot points.
	inStart   []uint32
	cands     []entry
	candMask  []uint64
	maskShift uint32

	// Per-state columns the run reads outside dispatch: the accept flag
	// (InAccept after a restore), the report code (collected reports),
	// and the label (faults embed it, matching core's error strings
	// byte for byte).
	accept []bool
	report []int32
	labels []string
}

// Compile lowers m into a Program. The machine is validated first: the
// dense ε-table construction is only sound for machines that satisfy
// the determinism condition, and a conflicting machine is a compile
// error here, never a silent mis-dispatch later.
func Compile(m *core.HDPDA) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	n := len(m.States)
	if n > maxStates {
		return nil, fmt.Errorf("engine: %s: %d states exceeds the %d-state table bound", m.Name, n, maxStates)
	}
	depth := m.StackDepth
	if depth == 0 {
		depth = core.DefaultStackDepth
	}
	p := &Program{
		name:       m.Name,
		numStates:  n,
		stackDepth: depth,
		start:      int32(m.Start),
		fp:         m.Fingerprint(),
		accept:     make([]bool, n),
		report:     make([]int32, n),
		labels:     make([]string, n),
	}
	var stackSets, inputSets []core.SymbolSet
	for i := range m.States {
		st := &m.States[i]
		stackSets = append(stackSets, st.Stack)
		if !st.Epsilon {
			inputSets = append(inputSets, st.Input)
		}
		p.accept[i] = st.Accept
		p.report[i] = st.Report
		p.labels[i] = st.Label
	}
	stackRep := classify(stackSets, &p.stackClass)
	codeRep := classify(inputSets, &p.codeClass)
	p.nsc, p.nic = uint32(len(stackRep)), uint32(len(codeRep))

	act := func(st *core.State) uint32 {
		a := uint32(st.Op.Pop)
		if st.Op.HasPush {
			a |= uint32(st.Op.Push)<<actPushShift | uint32(p.stackClass[st.Op.Push])<<actClsShift
		}
		if st.Accept {
			a |= actAccept
		}
		return a
	}

	words := 1
	for words*64 < len(stackRep) {
		words *= 2
		p.maskShift++
	}
	p.eps = make([]entry, n*len(stackRep))
	for i := range p.eps {
		p.eps[i].next = noState
	}
	p.inStart = make([]uint32, n*len(codeRep))
	p.cands = []entry{{next: noState, act: actLast}}
	p.candMask = make([]uint64, words)
	for i := range m.States {
		row := p.eps[i*len(stackRep):][:len(stackRep)]
		for _, t := range m.States[i].Succ {
			st := &m.States[t]
			if !st.Epsilon {
				continue
			}
			for c, sym := range stackRep {
				// Validate rules out two ε-successors on one TOS.
				if st.Stack.Contains(sym) {
					row[c] = entry{int32(t), act(st)}
				}
			}
		}
		for k, code := range codeRep {
			head := uint32(len(p.cands))
			for _, t := range m.States[i].Succ {
				st := &m.States[t]
				if st.Epsilon || !st.Input.Contains(code) {
					continue
				}
				p.cands = append(p.cands, entry{int32(t), act(st)})
				mask := len(p.candMask)
				p.candMask = append(p.candMask, make([]uint64, words)...)
				for c, sym := range stackRep {
					if st.Stack.Contains(sym) {
						p.candMask[mask+c>>6] |= 1 << (c & 63)
					}
				}
			}
			if last := len(p.cands) - 1; last >= int(head) {
				p.cands[last].act |= actLast
				p.inStart[i*len(codeRep)+k] = head
			}
		}
	}
	return p, nil
}

// classify partitions the 256 symbols so that two share a class iff
// every set in sets contains both or neither. It numbers the classes
// by their least symbol into cls and returns that symbol of each class.
func classify(sets []core.SymbolSet, cls *[256]uint8) []core.Symbol {
	// Refine one set at a time: a class splits into its members inside
	// and outside the set. Each pass renumbers by least symbol.
	var id [256]int
	n := 1
	for _, s := range sets {
		var split [256][2]int
		next := 0
		for sym := range id {
			in := 0
			if s.Contains(core.Symbol(sym)) {
				in = 1
			}
			if split[id[sym]][in] == 0 {
				next++
				split[id[sym]][in] = next
			}
			id[sym] = split[id[sym]][in] - 1
		}
		n = next
	}
	rep := make([]core.Symbol, n)
	for sym := 255; sym >= 0; sym-- {
		cls[sym] = uint8(id[sym])
		rep[id[sym]] = core.Symbol(sym)
	}
	return rep
}

// Name returns the source machine's name.
func (p *Program) Name() string { return p.name }

// NumStates returns the lowered state count.
func (p *Program) NumStates() int { return p.numStates }

// StackDepth returns the machine's configured stack depth.
func (p *Program) StackDepth() int { return p.stackDepth }

// Fingerprint returns the source machine's structural fingerprint, so
// checkpoints taken by an engine Exec interoperate with the simulator's
// (stream-level checkpoints stamp the machine fingerprint).
func (p *Program) Fingerprint() uint64 { return p.fp }

// TableBytes reports the lowered tables' approximate memory footprint,
// for capacity observability (/v1/grammars).
func (p *Program) TableBytes() int {
	return len(p.stackClass) + len(p.codeClass) +
		8*len(p.eps) + 4*len(p.inStart) + 8*len(p.cands) + 8*len(p.candMask) +
		len(p.accept) + 4*len(p.report)
}

// Run executes the program over input with the same contract as
// core.HDPDA.Run: drain ε-moves before each symbol and after the last,
// accept iff the input is fully consumed and the machine ends in an
// accept state.
func (p *Program) Run(input []core.Symbol, opts Options) (core.Result, error) {
	e := NewExec(p, opts)
	_, jammed, err := e.FeedAll(input)
	if err != nil {
		return e.res, err
	}
	if jammed {
		e.res.Jammed = true
		return e.res, nil
	}
	if _, err := e.DrainEpsilon(); err != nil {
		return e.res, err
	}
	e.res.Accepted = e.InAccept()
	return e.res, nil
}
