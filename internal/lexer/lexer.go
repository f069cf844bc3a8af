// Package lexer implements ASPEN's lexical-analysis model (paper §IV-D):
// tokens are recognized by homogeneous NFAs (the Cache Automaton
// substrate), the longest match is identified by running the NFA until
// state exhaustion (Active State Vector goes to zero) while a report
// register tracks the most recent accepting report, and a reporting mask
// selects which rules are live in the current lexer mode. Each emitted
// report is converted to a token and handed to the DPDA input buffer in
// two cycles.
package lexer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"aspen/internal/nfa"
	"aspen/internal/telemetry"
)

// DefaultMode is the mode rules belong to when none is given.
const DefaultMode = "main"

// Rule describes one token rule.
type Rule struct {
	// Name is the token name (typically a grammar terminal).
	Name string
	// Pattern is the regular expression (package nfa dialect).
	Pattern string
	// Skip drops matches (whitespace, comments) instead of emitting
	// tokens.
	Skip bool
	// Mode is the lexer mode in which the rule is active (DefaultMode if
	// empty). This models the hardware's reporting-mask register.
	Mode string
	// SetMode, when non-empty, switches the lexer to this mode after the
	// rule matches.
	SetMode string
}

// Spec is a complete tokenizer description. Earlier rules win ties
// (keyword-over-identifier priority).
type Spec struct {
	Name  string
	Rules []Rule
}

// Token is one lexed token, three words; Lexer.RuleName gives its
// rule's token name.
type Token struct {
	// Rule is the index into Spec.Rules.
	Rule int
	// Start and End delimit the lexeme as byte offsets [Start, End).
	Start, End int
}

// Stats model the lexer's cycle behaviour on ASPEN.
type Stats struct {
	// Bytes is the input length.
	Bytes int
	// Tokens is the number of tokens emitted (including skipped
	// lexemes).
	Tokens int
	// ScanCycles counts NFA symbol cycles, including the lookahead
	// bytes re-scanned after each longest-match backtrack. A streamed
	// input costs the same cycles however it is chunked: a Scan resumes
	// its run across chunks instead of re-scanning the pending lexeme.
	ScanCycles int
	// HandoffCycles counts report-to-token conversion cycles (2 per
	// emitted report, §V-A).
	HandoffCycles int
}

// Observe adds the stats to reg's lexer series, so tokenization work is
// queryable next to the parser's cycle counts. Streaming callers invoke
// it per chunk; every byte is presented once, so the totals equal those
// of one whole-input scan.
func (s Stats) Observe(reg *telemetry.Registry) {
	reg.Counter("lexer_bytes_total", "bytes presented to the lexer").Add(int64(s.Bytes))
	reg.Counter("lexer_tokens_total", "tokens emitted (including skipped lexemes)").Add(int64(s.Tokens))
	reg.Counter("lexer_scan_cycles_total", "NFA symbol cycles, including longest-match backtrack re-scans").Add(int64(s.ScanCycles))
	reg.Counter("lexer_handoff_cycles_total", "report-to-token conversion cycles (2 per emitted report)").Add(int64(s.HandoffCycles))
}

// Error is a lexing failure at a position.
type Error struct {
	Spec string
	Pos  int
	Byte byte
	Mode string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lexer %s: no rule matches at offset %d (byte %q, mode %s)", e.Spec, e.Pos, e.Byte, e.Mode)
}

// modeNFA is the compiled automaton of one mode: its NFA determinized,
// with rule indices mapped to per-mode report codes.
type modeNFA struct {
	name  string
	idx   int // position in Lexer.order
	dfa   *nfa.DFA
	acc   []int32 // per DFA state: the accepted rule index, or -1
	rules []int   // report code → rule index
}

// action is what the scan does once a rule's lexeme is decided.
type action struct {
	next *modeNFA // the mode the rule switches to, or nil
	emit bool     // false for a skip rule
}

// Lexer is a compiled tokenizer. It is immutable after New, so one
// Lexer serves any number of concurrent scans.
type Lexer struct {
	spec  Spec
	modes map[string]*modeNFA
	order []*modeNFA // modes sorted by name
	acts  []action   // per rule
	fp    uint64
}

// New compiles a spec. All patterns must be non-nullable (a rule matching
// the empty string could never advance the input). Each mode's NFA is
// determinized (subset construction) so scanning costs one table lookup
// per byte; the DFA dies on exactly the byte the hardware NFA exhausts
// its active states, so the cycle model is unchanged. A mode whose DFA
// would pass the state bound is an error wrapping nfa.ErrTooManyStates.
func New(spec Spec) (*Lexer, error) {
	byMode := map[string][]int{}
	for i, r := range spec.Rules {
		mode := r.Mode
		if mode == "" {
			mode = DefaultMode
		}
		byMode[mode] = append(byMode[mode], i)
	}
	if len(byMode[DefaultMode]) == 0 {
		return nil, fmt.Errorf("lexer %s: no rules in mode %q", spec.Name, DefaultMode)
	}
	// Mode switch targets must exist.
	for _, r := range spec.Rules {
		if r.SetMode != "" && len(byMode[r.SetMode]) == 0 {
			return nil, fmt.Errorf("lexer %s: rule %q switches to undefined mode %q", spec.Name, r.Name, r.SetMode)
		}
	}
	l := &Lexer{spec: spec, modes: map[string]*modeNFA{}}
	modes := make([]string, 0, len(byMode))
	for m := range byMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		idxs := byMode[m]
		pats := make([]string, len(idxs))
		for j, i := range idxs {
			pats[j] = spec.Rules[i].Pattern
		}
		n, err := nfa.CompilePatterns(spec.Name+":"+m, pats)
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		if n.AcceptEmpty {
			return nil, fmt.Errorf("lexer %s mode %s: rule %q matches the empty string",
				spec.Name, m, spec.Rules[idxs[n.EmptyReport]].Name)
		}
		d, err := n.Determinize()
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		acc := make([]int32, len(d.Report))
		for q, r := range d.Report {
			acc[q] = -1
			if r >= 0 {
				acc[q] = int32(idxs[r])
			}
		}
		mn := &modeNFA{name: m, idx: len(l.order), dfa: d, acc: acc, rules: idxs}
		l.modes[m] = mn
		l.order = append(l.order, mn)
	}
	l.acts = make([]action, len(spec.Rules))
	for i, r := range spec.Rules {
		l.acts[i] = action{next: l.modes[r.SetMode], emit: !r.Skip}
	}
	l.fp = l.fingerprint()
	return l, nil
}

// NumModes returns the number of lexer modes.
func (l *Lexer) NumModes() int { return len(l.modes) }

// RuleName returns the token name of rule i (a Token's Rule).
func (l *Lexer) RuleName(i int) string { return l.spec.Rules[i].Name }

// Fingerprint is a deterministic hash of the compiled mode tables: the
// rules, each mode's report map, and its DFA. A Scan's saved run
// configuration holds raw DFA state IDs, which mean something only on a
// lexer with the same fingerprint.
func (l *Lexer) Fingerprint() uint64 { return l.fp }

func (l *Lexer) fingerprint() uint64 {
	// New fingerprints every lexer it builds; hashing through a fixed
	// buffer keeps that from allocating a copy of the tables.
	h := fnv.New64a()
	b := make([]byte, 0, 4096)
	u32 := func(v int) {
		if len(b) > cap(b)-4 {
			h.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	str := func(s string) { u32(len(s)); b = append(b, s...) }
	for _, r := range l.spec.Rules {
		str(r.Name)
		str(r.SetMode)
		if r.Skip {
			u32(1)
		} else {
			u32(0)
		}
	}
	for _, mn := range l.order {
		str(mn.name)
		u32(len(mn.rules))
		for _, r := range mn.rules {
			u32(r)
		}
		d := mn.dfa
		u32(int(d.Start))
		u32(len(d.Report))
		for _, v := range d.Trans {
			u32(int(v))
		}
		for _, v := range d.Report {
			u32(int(v))
		}
	}
	h.Write(b)
	return h.Sum64()
}

// Tokenize scans input to completion, returning the non-skip tokens and
// cycle statistics.
func (l *Lexer) Tokenize(input []byte) ([]Token, Stats, error) {
	toks, stats, _, err := l.TokenizeResume(input, DefaultMode)
	return toks, stats, err
}

// TokenizeResume scans input starting in the given mode and additionally
// returns the mode in effect after the final token.
func (l *Lexer) TokenizeResume(input []byte, mode string) ([]Token, Stats, string, error) {
	return l.TokenizeResumeInto(nil, input, mode)
}

// TokenizeResumeInto is TokenizeResume appending into dst (pass
// dst[:0] to reuse its capacity across calls, the pooled-parser path).
func (l *Lexer) TokenizeResumeInto(dst []Token, input []byte, mode string) ([]Token, Stats, string, error) {
	var s Scan
	if err := s.Reset(l, mode); err != nil {
		return dst, Stats{Bytes: len(input)}, mode, err
	}
	toks, stats, err := s.scan(dst, input, true)
	return toks, stats, s.Mode(), err
}

// ModeAfter returns the mode in effect after applying rule's transition
// to the given mode.
func (l *Lexer) ModeAfter(mode string, rule int) string {
	if rule < 0 || rule >= len(l.spec.Rules) {
		return mode
	}
	if sm := l.spec.Rules[rule].SetMode; sm != "" {
		return sm
	}
	return mode
}

// Text returns the lexeme of t within input.
func (t Token) Text(input []byte) string { return string(input[t.Start:t.End]) }
