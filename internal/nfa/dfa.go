package nfa

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"aspen/internal/core"
)

// DFA is a determinized homogeneous NFA built by subset construction.
// The software lexer runs it: one table lookup per byte instead of an
// active-set sweep. ASPEN's hardware runs the NFA directly (the
// active-state vector is free in SRAM). Each DFA state stands for one
// NFA active set and the dead state for the empty one, so a DFA run
// dies on exactly the cycle the NFA's would.
type DFA struct {
	Name string
	// Trans is the dense transition table: Trans[state*256+symbol] is
	// the next state, or -1 for the dead state.
	Trans []int32
	// Report per state: the smallest NFA report among accepting NFA
	// states in the subset, or -1.
	Report []int32
	// Start is the initial DFA state (before any input).
	Start int32
	// AcceptEmpty mirrors the NFA's empty-match behaviour.
	AcceptEmpty bool
	EmptyReport int32
}

// maxDFAStates bounds subset construction (lexer machines are small; a
// blow-up indicates a pathological pattern set).
const maxDFAStates = 1 << 14

// ErrTooManyStates is wrapped by Determinize's error when subset
// construction passes maxDFAStates.
var ErrTooManyStates = errors.New("nfa: determinization exceeded the DFA state bound")

// Determinize builds the DFA. The NFA's anchored-run semantics are
// preserved: DFA state 0 corresponds to "no input yet" with the start
// states as candidates.
func (n *NFA) Determinize() (*DFA, error) {
	d := &DFA{
		Name:        n.Name + "-dfa",
		Start:       0,
		AcceptEmpty: n.AcceptEmpty,
		EmptyReport: n.EmptyReport,
	}

	// A subset is a sorted list of NFA state indices; key it compactly.
	key := func(set []int32) string {
		var b strings.Builder
		for _, s := range set {
			fmt.Fprintf(&b, "%d,", s)
		}
		return b.String()
	}
	report := func(set []int32) int32 {
		var rep int32 = -1
		for _, s := range set {
			st := &n.States[s]
			if st.Accept && (rep < 0 || st.Report < rep) {
				rep = st.Report
			}
		}
		return rep
	}

	// The initial "virtual" state: successors are the NFA start states.
	// We model it as a DFA state whose outgoing transitions consult the
	// starts; it is never re-entered, so it gets index 0 with report -1.
	index := map[string]int32{}
	var subsets [][]int32

	addState := func(set []int32) (int32, error) {
		k := key(set)
		if id, ok := index[k]; ok {
			return id, nil
		}
		if len(subsets) >= maxDFAStates {
			return -1, fmt.Errorf("%w of %d states", ErrTooManyStates, maxDFAStates)
		}
		id := int32(len(subsets))
		index[k] = id
		subsets = append(subsets, set)
		d.Report = append(d.Report, report(set))
		return id, nil
	}

	// Pseudo-subset for the initial state: represented by nil; its
	// transition sources are n.Starts.
	if _, err := addState(nil); err != nil {
		return nil, err
	}
	d.Report[0] = -1 // no input consumed yet

	// successorsOf computes, per input symbol, the subset reached.
	successorsOf := func(sources []int32, initial bool) map[core.Symbol][]int32 {
		out := map[core.Symbol][]int32{}
		seen := map[core.Symbol]map[int32]bool{}
		consider := func(t int32) {
			st := &n.States[t]
			for _, sym := range st.Match.Symbols() {
				m := seen[sym]
				if m == nil {
					m = map[int32]bool{}
					seen[sym] = m
				}
				if !m[t] {
					m[t] = true
					out[sym] = append(out[sym], t)
				}
			}
		}
		if initial {
			for _, t := range n.Starts {
				consider(t)
			}
		} else {
			for _, s := range sources {
				for _, t := range n.States[s].Succ {
					consider(t)
				}
			}
		}
		for sym := range out {
			sort.Slice(out[sym], func(i, j int) bool { return out[sym][i] < out[sym][j] })
		}
		return out
	}

	// BFS over subsets, filling the dense table. Symbols are visited in
	// order so state numbering is deterministic: a lexer scan's saved
	// DFA state must mean the same thing after a restart.
	d.Trans = append(d.Trans, make([]int32, 256)...)
	for i := range d.Trans {
		d.Trans[i] = -1
	}
	for si := 0; si < len(subsets); si++ {
		succ := successorsOf(subsets[si], si == 0)
		for c := 0; c < 256; c++ {
			sym := core.Symbol(c)
			set, ok := succ[sym]
			if !ok {
				continue
			}
			id, err := addState(set)
			if err != nil {
				return nil, err
			}
			for int(id+1)*256 > len(d.Trans) {
				base := len(d.Trans)
				d.Trans = append(d.Trans, make([]int32, 256)...)
				for i := base; i < len(d.Trans); i++ {
					d.Trans[i] = -1
				}
			}
			d.Trans[si*256+int(sym)] = id
		}
	}
	return d, nil
}

// DFARun is an in-progress anchored DFA execution.
type DFARun struct {
	d   *DFA
	cur int32
}

// NewRun starts an anchored execution.
func (d *DFA) NewRun() *DFARun { return &DFARun{d: d, cur: d.Start} }

// Reset rewinds to the initial state.
func (r *DFARun) Reset() { r.cur = r.d.Start }

// Step consumes one symbol, returning liveness and the report code of
// the new state (-1 if none) — the same contract as nfa.Run.Step.
func (r *DFARun) Step(sym core.Symbol) (alive bool, report int32) {
	if r.cur < 0 {
		return false, -1
	}
	r.cur = r.d.Trans[int(r.cur)*256+int(sym)]
	if r.cur < 0 {
		return false, -1
	}
	return true, r.d.Report[r.cur]
}

// Matches reports whether the DFA accepts exactly the input.
func (d *DFA) Matches(input []core.Symbol) bool {
	if len(input) == 0 {
		return d.AcceptEmpty
	}
	r := d.NewRun()
	var rep int32 = -1
	for i, sym := range input {
		alive, rp := r.Step(sym)
		if !alive {
			return false
		}
		if i == len(input)-1 {
			rep = rp
		}
	}
	return rep >= 0
}

// NumStates returns the DFA state count.
func (d *DFA) NumStates() int { return len(d.Report) }
