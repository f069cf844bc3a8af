// Package nfa implements homogeneous non-deterministic finite automata,
// the computational model of the Cache Automaton architecture that ASPEN
// re-uses for lexical analysis (paper §IV-D). A homogeneous NFA state
// matches a single symbol set (one SRAM column); execution maintains a
// 256-bit-style active-state vector and steps one input symbol per
// cycle. Regular expressions are compiled to homogeneous NFAs with the
// Glushkov construction, which yields homogeneity directly (one state
// per character position, no ε-transitions).
package nfa

import (
	"fmt"
	"math/bits"

	"aspen/internal/core"
)

// State is one homogeneous NFA state.
type State struct {
	// Match is the symbol set this state matches (its one-hot column).
	Match core.SymbolSet
	// Accept marks reporting states.
	Accept bool
	// Report is the application-defined report code (e.g. lexer rule).
	Report int32
	// Succ lists successor state indices.
	Succ []int32
}

// NFA is a homogeneous NFA with explicit start states.
type NFA struct {
	Name   string
	States []State
	// Starts are the states activated by the first symbol.
	Starts []int32
	// AcceptEmpty reports the empty string (Glushkov nullable root).
	AcceptEmpty bool
	// EmptyReport is the report code for the empty match.
	EmptyReport int32
}

// NumStates returns the state count.
func (n *NFA) NumStates() int { return len(n.States) }

// Validate checks structural well-formedness.
func (n *NFA) Validate() error {
	for i, st := range n.States {
		if st.Match.IsEmpty() {
			return fmt.Errorf("nfa %q: state %d matches nothing", n.Name, i)
		}
		for _, t := range st.Succ {
			if t < 0 || int(t) >= len(n.States) {
				return fmt.Errorf("nfa %q: state %d has bad successor %d", n.Name, i, t)
			}
		}
	}
	for _, s := range n.Starts {
		if s < 0 || int(s) >= len(n.States) {
			return fmt.Errorf("nfa %q: bad start state %d", n.Name, s)
		}
	}
	return nil
}

// ActiveSet is a bitset over NFA states — the Active State Vector of the
// hardware.
type ActiveSet []uint64

// NewActiveSet allocates a set sized for n states.
func NewActiveSet(n int) ActiveSet { return make(ActiveSet, (n+63)/64) }

// Set marks state i active.
func (a ActiveSet) Set(i int32) { a[i>>6] |= 1 << (i & 63) }

// Has reports whether state i is active.
func (a ActiveSet) Has(i int32) bool { return a[i>>6]&(1<<(i&63)) != 0 }

// Clear zeroes the set.
func (a ActiveSet) Clear() {
	for i := range a {
		a[i] = 0
	}
}

// Any reports whether any state is active (the inverse of the hardware's
// state-exhaustion signal).
func (a ActiveSet) Any() bool {
	for _, w := range a {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of active states.
func (a ActiveSet) Count() int {
	n := 0
	for _, w := range a {
		n += bits.OnesCount64(w)
	}
	return n
}

// Run is an in-progress anchored NFA execution.
type Run struct {
	n       *NFA
	active  ActiveSet
	scratch ActiveSet
	first   bool
	// Steps counts symbols consumed.
	Steps int
}

// NewRun starts an anchored execution (start states are candidates for
// the first symbol only — the lexer model, which restarts per token).
func (n *NFA) NewRun() *Run {
	return &Run{
		n:       n,
		active:  NewActiveSet(len(n.States)),
		scratch: NewActiveSet(len(n.States)),
		first:   true,
	}
}

// Reset rewinds the run to the pre-input state.
func (r *Run) Reset() {
	r.active.Clear()
	r.first = true
	r.Steps = 0
}

// Step consumes one symbol. It returns whether any state remains active
// and the smallest report code among accept states activated this cycle
// (or -1 if none) — the hardware's report register update.
func (r *Run) Step(sym core.Symbol) (alive bool, report int32) {
	report = -1
	r.scratch.Clear()
	states := r.n.States
	if r.first {
		r.first = false
		for _, s := range r.n.Starts {
			if states[s].Match.Contains(sym) {
				r.scratch.Set(s)
			}
		}
	} else {
		for wi, w := range r.active {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				si := int32(wi*64 + b)
				for _, t := range states[si].Succ {
					if states[t].Match.Contains(sym) {
						r.scratch.Set(t)
					}
				}
			}
		}
	}
	r.active, r.scratch = r.scratch, r.active
	r.Steps++
	for wi, w := range r.active {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			si := int32(wi*64 + b)
			st := &states[si]
			if st.Accept && (report < 0 || st.Report < report) {
				report = st.Report
			}
		}
	}
	return r.active.Any(), report
}

// Matches reports whether the NFA accepts exactly the given input
// (anchored at both ends).
func (n *NFA) Matches(input []core.Symbol) bool {
	if len(input) == 0 {
		return n.AcceptEmpty
	}
	r := n.NewRun()
	last := int32(-1)
	for i, sym := range input {
		alive, rep := r.Step(sym)
		if i == len(input)-1 {
			return rep >= 0
		}
		if !alive {
			return false
		}
		_ = rep
		_ = last
	}
	return false
}

// MatchesString is Matches over raw bytes.
func (n *NFA) MatchesString(s string) bool {
	return n.Matches(core.BytesToSymbols([]byte(s)))
}
