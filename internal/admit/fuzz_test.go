package admit

import (
	"strings"
	"testing"

	"aspen/internal/core"
)

// FuzzAdmitUpload throws arbitrary bytes at the admission pipeline in
// all three formats. Three properties must hold for every input:
//
//  1. Admit never panics — hostile uploads are rejected with
//     diagnostics, not crashes;
//  2. admission is never falsified by replay: if a machine IS admitted,
//     executing it on pseudo-random inputs must never overflow the
//     proven stack bound, never underflow, and never ε-livelock. The
//     checker's verdict is a guarantee, not a heuristic;
//  3. an admitted upload's lexer builds: the registry refuses a
//     language whose Lexer fails, so admission must have refused it.
func FuzzAdmitUpload(f *testing.F) {
	f.Add([]byte("\x00" + pdaAlternating))
	f.Add([]byte("\x01%name X\n%token A\n%start S\nS : S A | A ;\n%lex A a\n"))
	f.Add([]byte(`\x02{"version":"aspen-mnrl-1.0","id":"x","nodes":[]}`))
	f.Add([]byte("\x00[States]\nq0\nEnd\n[Sigma]\na\nEnd"))
	f.Add([]byte("\x01S : ;"))
	f.Add([]byte("\x02{"))
	f.Add([]byte("\x01%name X\n%token A\n%start S\nS : A ;\n%lex A [ab]*a" + strings.Repeat("[ab]", 14) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		format := Formats()[int(data[0])%len(Formats())]
		source := data[1:]
		res, err := Admit("fuzz", format, source, Limits{})
		if err != nil {
			if _, ok := err.(*Rejection); !ok {
				t.Fatalf("non-Rejection error from Admit: %v", err)
			}
			return
		}
		if _, err := res.Language.Lexer(); err != nil {
			t.Fatalf("admitted upload's lexer does not build: %v", err)
		}
		replayWitness(t, res, source)
	})
}

// replayWitness executes the admitted machine on deterministic
// pseudo-random token streams and fails if any run falsifies a claim
// the static analysis made.
func replayWitness(t *testing.T, res *Result, source []byte) {
	m := res.Language.Prebuilt.Machine
	codes := m.InputAlphabet.Symbols()
	if len(codes) == 0 {
		t.Fatal("admitted machine has empty input alphabet")
	}
	// The runtime ε-budget formula scales with the stamped depth; give
	// the replay a far larger one so only a genuine livelock (which the
	// checker promised is impossible) can exhaust it.
	opts := core.ExecOptions{EpsilonBudget: 1 << 20}
	seed := uint64(0x9e3779b97f4a7c15)
	for _, b := range source {
		seed = seed*0x100000001b3 + uint64(b)
	}
	for trial := 0; trial < 8; trial++ {
		n := int(seed % 64)
		seed = seed*6364136223846793005 + 1442695040888963407
		in := make([]core.Symbol, 0, n)
		for i := 0; i < n; i++ {
			in = append(in, codes[seed%uint64(len(codes))])
			seed = seed*6364136223846793005 + 1442695040888963407
		}
		r, err := m.Run(in, opts)
		if err != nil {
			t.Fatalf("admitted machine failed at runtime on %v: %v", in, err)
		}
		if r.MaxStackDepth > res.StackBound {
			t.Fatalf("stack reached %d on %v, admission proved bound %d", r.MaxStackDepth, in, res.StackBound)
		}
	}
}
