package lang

import (
	"aspen/internal/grammar"
	"aspen/internal/lexer"
)

// JSON returns the JSON data-interchange language (paper Table III: 13
// token types, 19 grammar productions).
func JSON() *Language {
	g := grammar.MustParse(`
%name JSON
%token LBRACE RBRACE LBRACKET RBRACKET COLON COMMA
%token STRING INT FRAC EXP TRUE FALSE NULL
%start Json

Json     : Value ;
Value    : Object | Array | STRING | Number | TRUE | FALSE | NULL ;
Number   : INT | INT FRAC | INT EXP | INT FRAC EXP ;
Object   : LBRACE RBRACE | LBRACE Members RBRACE ;
Members  : Pair | Members COMMA Pair ;
Pair     : STRING COLON Value ;
Array    : LBRACKET RBRACKET | LBRACKET Elements RBRACKET ;
Elements : Value | Elements COMMA Value ;
`)
	spec := lexer.Spec{
		Name: "json",
		Rules: []lexer.Rule{
			{Name: "LBRACE", Pattern: `\{`},
			{Name: "RBRACE", Pattern: `\}`},
			{Name: "LBRACKET", Pattern: `\[`},
			{Name: "RBRACKET", Pattern: `\]`},
			{Name: "COLON", Pattern: `:`},
			{Name: "COMMA", Pattern: `,`},
			{Name: "TRUE", Pattern: `true`},
			{Name: "FALSE", Pattern: `false`},
			{Name: "NULL", Pattern: `null`},
			// RFC 8259 §7: no raw control byte, only the escapes
			// \" \\ \/ \b \f \n \r \t, and \u with exactly four hex digits.
			{Name: "STRING", Pattern: `"([^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9a-fA-F][0-9a-fA-F][0-9a-fA-F][0-9a-fA-F])*"`},
			{Name: "INT", Pattern: `-?(0|[1-9]\d*)`},
			{Name: "FRAC", Pattern: `\.\d+`},
			{Name: "EXP", Pattern: `[eE][+-]?\d+`},
			{Name: "WS", Pattern: `[ \t\r\n]+`, Skip: true},
		},
	}
	return &Language{Name: "JSON", Grammar: g, LexSpec: spec}
}

// JSONSample is a small well-formed document exercising every JSON
// construct.
const JSONSample = `{
  "name": "aspen",
  "version": 1,
  "pi": 3.14159,
  "big": 6.02e23,
  "tags": ["sram", "pda", "micro"],
  "nested": {"a": [1, 2, {"b": null}], "ok": true, "bad": false},
  "empty_obj": {},
  "empty_arr": []
}`
