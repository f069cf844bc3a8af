package lexer

import "fmt"

// AccelRows describes the accelerated rows of l, mode by mode: how the
// scan skips each one's runs, the bytes that leave it, and the rule it
// accepts, if any. Tests outside the package pin the built-in lexers'
// acceleration with it.
func AccelRows(l *Lexer) []string {
	var out []string
	for _, mn := range l.order {
		for q := mn.special; q < mn.accelHi; q += 256 {
			var exits []byte
			for b, t := range mn.tab[q : q+256] {
				if t != q {
					exits = append(exits, byte(b))
				}
			}
			a := mn.accels[(q-mn.special)>>8]
			desc := fmt.Sprintf("%s: %s", mn.name, [...]string{"byte", "swar"}[a.kind])
			if a.kind == accelSWAR && a.lt > 0 {
				desc += fmt.Sprintf(" <%#02x", a.lt)
				exits = exits[a.lt:]
			}
			desc += fmt.Sprintf(" %q", exits)
			if q >= mn.accLo {
				desc += " accepts " + l.RuleName(int(mn.hits[(q-mn.accLo)>>8].rule))
			}
			out = append(out, desc)
		}
	}
	return out
}
