// Package meteor implements the declarative scripting layer of §3.1: "data
// flows are specified in a declarative scripting language called Meteor
// [13]. Meteor scripts are composed of primitive operators, which are
// defined in domain-specific packages". A script is parsed into an
// algebraic representation (a dataflow.Plan), logically optimized, and
// executed by the dataflow engine — the same layering as
// script → Sopremo algebra → optimized plan → execution graph.
//
// The grammar is a compact Meteor dialect:
//
//	$pages  = read from 'crawl';
//	$short  = filter_length $pages with min=250, max=1000000;
//	$clean  = remove_markup $short;
//	write $clean to 'out';
//
// Statement forms:
//
//	$var = read from 'name';
//	$var = <operator> $input [$input2 ...] [with k=v, k=v ...];
//	write $var to 'name';
//
// Comments run from "--" to end of line.
package meteor

import (
	"fmt"
	"strconv"

	"webtextie/internal/dataflow"
)

// Value is an operator parameter: a string or a number.
type Value struct {
	Str   string
	Num   float64
	IsNum bool
}

// Params maps parameter names to values.
type Params map[string]Value

// Registry resolves operator names (with parameters) to dataflow operators.
type Registry interface {
	Resolve(name string, params Params) (*dataflow.Op, error)
}

// RegistryFunc adapts a function to the Registry interface.
type RegistryFunc func(name string, params Params) (*dataflow.Op, error)

// Resolve implements Registry.
func (f RegistryFunc) Resolve(name string, params Params) (*dataflow.Op, error) {
	return f(name, params)
}

// --- Lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokVar         // $name
	tokIdent
	tokString
	tokNumber
	tokEquals
	tokComma
	tokSemi
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (l *lexer) error(format string, args ...any) error {
	return fmt.Errorf("meteor: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case c == '=':
		l.pos++
		return token{tokEquals, "=", l.line}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", l.line}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", l.line}, nil
	case c == '\'' || c == '"':
		q := c
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != q {
			if l.src[l.pos] == '\n' {
				return token{}, l.error("unterminated string")
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.error("unterminated string")
		}
		text := l.src[s:l.pos]
		l.pos++
		return token{tokString, text, l.line}, nil
	case c == '$':
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == s {
			return token{}, l.error("empty variable name")
		}
		return token{tokVar, l.src[s:l.pos], l.line}, nil
	case c >= '0' && c <= '9' || c == '-' || c == '.':
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' ||
			l.src[l.pos] == '.' || l.src[l.pos] == '-' || l.src[l.pos] == 'e') {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], l.line}, nil
	case isIdentChar(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], l.line}, nil
	default:
		return token{}, l.error("unexpected character %q", string(c))
	}
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_'
}

// --- AST ---

// Stmt is one parsed statement.
type Stmt struct {
	// Assign: Var = Op(Inputs, Params) or Var = read from Source.
	Var    string
	OpName string // "" for read
	Inputs []string
	Params Params
	Source string // read-from name
	// Write: SinkVar -> SinkName.
	SinkVar, SinkName string
	Line              int
}

// Script is a parsed Meteor script.
type Script struct {
	Stmts []Stmt
}

// Parse lexes and parses a script.
func Parse(src string) (*Script, error) {
	l := &lexer{src: src, line: 1}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
	}
	p := &parser{toks: toks}
	return p.parse()
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("meteor: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errorf("expected %s, got %q", what, p.cur().text)
	}
	t := p.cur()
	p.advance()
	return t, nil
}

func (p *parser) parse() (*Script, error) {
	s := &Script{}
	for p.cur().kind != tokEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.Stmts = append(s.Stmts, st)
	}
	if len(s.Stmts) == 0 {
		return nil, fmt.Errorf("meteor: empty script")
	}
	return s, nil
}

func (p *parser) statement() (Stmt, error) {
	line := p.cur().line
	switch p.cur().kind {
	case tokIdent:
		if p.cur().text != "write" {
			return Stmt{}, p.errorf("expected 'write' or assignment, got %q", p.cur().text)
		}
		p.advance()
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return Stmt{}, err
		}
		if t, err := p.expect(tokIdent, "'to'"); err != nil || t.text != "to" {
			if err == nil {
				err = p.errorf("expected 'to', got %q", t.text)
			}
			return Stmt{}, err
		}
		name, err := p.expect(tokString, "sink name")
		if err != nil {
			return Stmt{}, err
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return Stmt{}, err
		}
		return Stmt{SinkVar: v.text, SinkName: name.text, Line: line}, nil

	case tokVar:
		v := p.cur()
		p.advance()
		if _, err := p.expect(tokEquals, "'='"); err != nil {
			return Stmt{}, err
		}
		op, err := p.expect(tokIdent, "operator name")
		if err != nil {
			return Stmt{}, err
		}
		if op.text == "read" {
			if t, err := p.expect(tokIdent, "'from'"); err != nil || t.text != "from" {
				if err == nil {
					err = p.errorf("expected 'from', got %q", t.text)
				}
				return Stmt{}, err
			}
			src, err := p.expect(tokString, "source name")
			if err != nil {
				return Stmt{}, err
			}
			if _, err := p.expect(tokSemi, "';'"); err != nil {
				return Stmt{}, err
			}
			return Stmt{Var: v.text, Source: src.text, Line: line}, nil
		}
		st := Stmt{Var: v.text, OpName: op.text, Params: Params{}, Line: line}
		for p.cur().kind == tokVar {
			st.Inputs = append(st.Inputs, p.cur().text)
			p.advance()
		}
		if len(st.Inputs) == 0 {
			return Stmt{}, p.errorf("operator %q needs at least one input variable", op.text)
		}
		if p.cur().kind == tokIdent && p.cur().text == "with" {
			p.advance()
			for {
				key, err := p.expect(tokIdent, "parameter name")
				if err != nil {
					return Stmt{}, err
				}
				if _, err := p.expect(tokEquals, "'='"); err != nil {
					return Stmt{}, err
				}
				switch p.cur().kind {
				case tokString:
					st.Params[key.text] = Value{Str: p.cur().text}
				case tokNumber:
					n, err := strconv.ParseFloat(p.cur().text, 64)
					if err != nil {
						return Stmt{}, p.errorf("bad number %q", p.cur().text)
					}
					st.Params[key.text] = Value{Num: n, IsNum: true}
				case tokIdent:
					st.Params[key.text] = Value{Str: p.cur().text}
				default:
					return Stmt{}, p.errorf("expected parameter value")
				}
				p.advance()
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return Stmt{}, err
		}
		return st, nil
	default:
		return Stmt{}, p.errorf("unexpected token %q", p.cur().text)
	}
}

// --- Compiler ---

// SourceField tags records with their logical source stream so one plan
// can host several named reads.
const SourceField = "__source"

// Compiled is the result of compiling a script.
type Compiled struct {
	Plan *dataflow.Plan
	// Sources lists the read-from names in script order.
	Sources []string
	// SinkIDs maps sink names to plan node ids.
	SinkIDs map[string]int
}

// Compile resolves a parsed script into an executable plan.
func Compile(s *Script, reg Registry) (*Compiled, error) {
	plan := &dataflow.Plan{}
	vars := map[string]*dataflow.Node{}
	c := &Compiled{Plan: plan, SinkIDs: map[string]int{}}
	seenSource := map[string]bool{}
	for _, st := range s.Stmts {
		switch {
		case st.Source != "":
			name := st.Source
			if !seenSource[name] {
				seenSource[name] = true
				c.Sources = append(c.Sources, name)
			}
			op := &dataflow.Op{
				Name: "read:" + name, Pkg: dataflow.BASE, Filter: true,
				Reads: []string{SourceField}, Selectivity: 1,
				Fn: dataflow.Keep(func(r dataflow.Record) bool {
					src, ok := r[SourceField]
					return !ok || src == name
				}),
			}
			vars[st.Var] = plan.Add(op)
		case st.OpName != "":
			op, err := reg.Resolve(st.OpName, st.Params)
			if err != nil {
				return nil, fmt.Errorf("meteor: line %d: %w", st.Line, err)
			}
			var inputs []*dataflow.Node
			for _, in := range st.Inputs {
				n, ok := vars[in]
				if !ok {
					return nil, fmt.Errorf("meteor: line %d: undefined variable $%s", st.Line, in)
				}
				inputs = append(inputs, n)
			}
			vars[st.Var] = plan.Add(op, inputs...)
		default:
			n, ok := vars[st.SinkVar]
			if !ok {
				return nil, fmt.Errorf("meteor: line %d: undefined variable $%s", st.Line, st.SinkVar)
			}
			sink := plan.Add(&dataflow.Op{
				Name: "write:" + st.SinkName, Pkg: dataflow.BASE,
				Reads: []string{}, Writes: nil, Selectivity: 1,
				Fn: dataflow.Keep(func(dataflow.Record) bool { return true }),
			}, n)
			c.SinkIDs[st.SinkName] = sink.ID()
		}
	}
	if len(c.SinkIDs) == 0 {
		return nil, fmt.Errorf("meteor: script has no write statement")
	}
	return c, nil
}

// Run parses, compiles, optionally optimizes, and executes a script. The
// inputs map provides the records for each read-from name; outputs are
// keyed by sink name.
func Run(src string, reg Registry, inputs map[string][]dataflow.Record,
	optimize bool, cfg dataflow.ExecConfig) (map[string][]dataflow.Record, *dataflow.ExecStats, error) {

	script, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	compiled, err := Compile(script, reg)
	if err != nil {
		return nil, nil, err
	}
	if optimize {
		dataflow.Optimize(compiled.Plan)
	}
	// Tag and union the inputs. A script with one source passes its
	// untagged records as they are: its reads keep them, and Execute never
	// writes its inputs.
	var union []dataflow.Record
	for _, name := range compiled.Sources {
		for _, r := range inputs[name] {
			if _, tagged := r[SourceField]; tagged || len(compiled.Sources) > 1 {
				r = r.Clone()
				r[SourceField] = name
			}
			union = append(union, r)
		}
	}
	results, stats, err := dataflow.Execute(compiled.Plan, union, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := map[string][]dataflow.Record{}
	for name, id := range compiled.SinkIDs {
		recs := results[id]
		for _, r := range recs {
			delete(r, SourceField)
		}
		out[name] = recs
	}
	return out, stats, nil
}
