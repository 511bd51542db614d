// Package parser implements a recursive-descent parser for the P4-16
// subset used by SwitchV to model fixed-function switches.
package parser

import (
	"fmt"

	"switchv/internal/p4/ast"
	"switchv/internal/p4/token"
)

// Parse parses a complete P4 model program.
func Parse(src string) (*ast.Program, error) {
	toks, err := token.ScanAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

// MaxNesting bounds how deeply a program may nest blocks, if statements
// and expressions. The parser recurses once per level, and a Go stack
// overflow cannot be recovered from, so a deeper program is a parse
// error. Each block, if statement, expression (a parenthesized one, a
// ternary arm, a call argument, an assignment's right-hand side, a
// condition) and unary operator counts one level; the models under
// models/ nest nine levels at most.
const MaxNesting = 1000

type parser struct {
	toks  []token.Token
	pos   int
	depth int // levels of nesting open, bounded by MaxNesting
}

// enter opens one level of nesting, failing past MaxNesting; a caller
// that succeeds closes the level with leave.
func (p *parser) enter() error {
	if p.depth == MaxNesting {
		return p.errf("nesting deeper than %d levels", MaxNesting)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() token.Token  { return p.toks[p.pos] }
func (p *parser) next() token.Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) peekKind(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.peekKind(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.peekKind(k) {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("p4: %s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	for !p.peekKind(token.EOF) {
		annos, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		switch p.cur().Kind {
		case token.KwTypedef:
			td, err := p.parseTypedef(annos)
			if err != nil {
				return nil, err
			}
			prog.Typedefs = append(prog.Typedefs, td)
		case token.KwConst:
			c, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			prog.Consts = append(prog.Consts, c)
		case token.KwHeader:
			h, err := p.parseHeader(annos)
			if err != nil {
				return nil, err
			}
			prog.Headers = append(prog.Headers, h)
		case token.KwStruct:
			s, err := p.parseStruct(annos)
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, s)
		case token.KwControl:
			c, err := p.parseControl(annos)
			if err != nil {
				return nil, err
			}
			prog.Controls = append(prog.Controls, c)
			if prog.Name == "" {
				if a, ok := c.Annos.Find("name"); ok {
					if s, ok := a.StringArg(); ok {
						prog.Name = s
					}
				}
			}
		default:
			return nil, p.errf("unexpected top-level token %s", p.cur())
		}
	}
	return prog, nil
}

// parseAnnotations parses zero or more @name or @name(...) annotations.
func (p *parser) parseAnnotations() (ast.Annotations, error) {
	var annos ast.Annotations
	for p.peekKind(token.At) {
		at := p.next()
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		a := ast.Annotation{Pos: at.Pos, Name: name.Text}
		if p.accept(token.LParen) {
			depth := 1
			for depth > 0 {
				t := p.cur()
				if t.Kind == token.EOF {
					return nil, p.errf("unterminated annotation @%s", name.Text)
				}
				if t.Kind == token.LParen {
					depth++
				}
				if t.Kind == token.RParen {
					depth--
					if depth == 0 {
						p.next()
						break
					}
				}
				a.Body = append(a.Body, p.next())
			}
		}
		annos = append(annos, a)
	}
	return annos, nil
}

func (p *parser) parseType() (ast.Type, error) {
	switch t := p.cur(); t.Kind {
	case token.KwBit:
		p.next()
		if _, err := p.expect(token.Lt); err != nil {
			return ast.Type{}, err
		}
		w, err := p.expect(token.Int)
		if err != nil {
			return ast.Type{}, err
		}
		if _, err := p.expect(token.Gt); err != nil {
			return ast.Type{}, err
		}
		if w.Value == 0 || w.Value > 128 {
			return ast.Type{}, fmt.Errorf("p4: %s: bit width %d out of range [1,128]", w.Pos, w.Value)
		}
		return ast.Type{Pos: t.Pos, Name: "bit", Width: int(w.Value)}, nil
	case token.KwBool:
		p.next()
		return ast.Type{Pos: t.Pos, Name: "bool"}, nil
	case token.Ident:
		p.next()
		return ast.Type{Pos: t.Pos, Name: t.Text}, nil
	default:
		return ast.Type{}, p.errf("expected type, found %s", t)
	}
}

func (p *parser) parseTypedef(annos ast.Annotations) (*ast.Typedef, error) {
	kw := p.next() // typedef
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.Typedef{Pos: kw.Pos, Name: name.Text, Type: typ, Annos: annos}, nil
}

func (p *parser) parseConst() (*ast.Const, error) {
	kw := p.next() // const
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Assign); err != nil {
		return nil, err
	}
	val, err := p.expect(token.Int)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return nil, err
	}
	return &ast.Const{Pos: kw.Pos, Name: name.Text, Type: typ, Value: val.Value}, nil
}

func (p *parser) parseFields() ([]ast.Field, error) {
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var fields []ast.Field
	for !p.accept(token.RBrace) {
		annos, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		fields = append(fields, ast.Field{Pos: typ.Pos, Name: name.Text, Type: typ, Annos: annos})
	}
	return fields, nil
}

func (p *parser) parseHeader(annos ast.Annotations) (*ast.Header, error) {
	kw := p.next() // header
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	fields, err := p.parseFields()
	if err != nil {
		return nil, err
	}
	return &ast.Header{Pos: kw.Pos, Name: name.Text, Fields: fields, Annos: annos}, nil
}

func (p *parser) parseStruct(annos ast.Annotations) (*ast.Struct, error) {
	kw := p.next() // struct
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	fields, err := p.parseFields()
	if err != nil {
		return nil, err
	}
	return &ast.Struct{Pos: kw.Pos, Name: name.Text, Fields: fields, Annos: annos}, nil
}

func (p *parser) parseParams() ([]ast.Param, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var params []ast.Param
	for !p.accept(token.RParen) {
		if len(params) > 0 {
			if _, err := p.expect(token.Comma); err != nil {
				return nil, err
			}
		}
		annos, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		dir := ""
		switch p.cur().Kind {
		case token.KwIn:
			dir = "in"
			p.next()
		case token.KwOut:
			dir = "out"
			p.next()
		case token.KwInout:
			dir = "inout"
			p.next()
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		params = append(params, ast.Param{Pos: typ.Pos, Direction: dir, Type: typ, Name: name.Text, Annos: annos})
	}
	return params, nil
}

func (p *parser) parseControl(annos ast.Annotations) (*ast.Control, error) {
	kw := p.next() // control
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	ctrl := &ast.Control{Pos: kw.Pos, Name: name.Text, Params: params, Annos: annos}
	for !p.accept(token.RBrace) {
		declAnnos, err := p.parseAnnotations()
		if err != nil {
			return nil, err
		}
		switch p.cur().Kind {
		case token.KwAction:
			a, err := p.parseAction(declAnnos)
			if err != nil {
				return nil, err
			}
			ctrl.Actions = append(ctrl.Actions, a)
		case token.KwTable:
			t, err := p.parseTable(declAnnos)
			if err != nil {
				return nil, err
			}
			ctrl.Tables = append(ctrl.Tables, t)
		case token.KwApply:
			if ctrl.Apply != nil {
				return nil, p.errf("duplicate apply block in control %s", ctrl.Name)
			}
			p.next()
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			ctrl.Apply = blk
		default:
			return nil, p.errf("unexpected token %s in control %s", p.cur(), ctrl.Name)
		}
	}
	if ctrl.Apply == nil {
		return nil, fmt.Errorf("p4: %s: control %s has no apply block", kw.Pos, ctrl.Name)
	}
	return ctrl, nil
}

func (p *parser) parseAction(annos ast.Annotations) (*ast.Action, error) {
	kw := p.next() // action
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ast.Action{Pos: kw.Pos, Name: name.Text, Params: params, Body: body, Annos: annos}, nil
}

func (p *parser) parseTable(annos ast.Annotations) (*ast.Table, error) {
	kw := p.next() // table
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	tbl := &ast.Table{Pos: kw.Pos, Name: name.Text, Annos: annos}
	for !p.accept(token.RBrace) {
		switch p.cur().Kind {
		case token.KwKey:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.LBrace); err != nil {
				return nil, err
			}
			for !p.accept(token.RBrace) {
				elem, err := p.parseKeyElem()
				if err != nil {
					return nil, err
				}
				tbl.Keys = append(tbl.Keys, elem)
			}
		case token.KwActions:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.LBrace); err != nil {
				return nil, err
			}
			for !p.accept(token.RBrace) {
				refAnnos, err := p.parseAnnotations()
				if err != nil {
					return nil, err
				}
				an, err := p.expect(token.Ident)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.Semicolon); err != nil {
					return nil, err
				}
				tbl.Actions = append(tbl.Actions, ast.ActionRef{Pos: an.Pos, Name: an.Text, Annos: refAnnos})
			}
		case token.KwConst, token.KwDefaultAction:
			isConst := p.accept(token.KwConst)
			if _, err := p.expect(token.KwDefaultAction); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			an, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			tbl.DefaultAction = an.Text
			tbl.ConstDefault = isConst
			if p.accept(token.LParen) {
				for !p.accept(token.RParen) {
					if len(tbl.DefaultArgs) > 0 {
						if _, err := p.expect(token.Comma); err != nil {
							return nil, err
						}
					}
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					tbl.DefaultArgs = append(tbl.DefaultArgs, arg)
				}
			}
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
		case token.KwSize:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			sz, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			tbl.Size = sz
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
		case token.KwImplementation:
			p.next()
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
			impl, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			// Tolerate and discard selector arguments:
			// implementation = action_selector(hash, 128, 10);
			if p.accept(token.LParen) {
				depth := 1
				for depth > 0 {
					switch p.next().Kind {
					case token.LParen:
						depth++
					case token.RParen:
						depth--
					case token.EOF:
						return nil, p.errf("unterminated implementation property")
					}
				}
			}
			tbl.Implementation = impl.Text
			if _, err := p.expect(token.Semicolon); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected token %s in table %s", p.cur(), tbl.Name)
		}
	}
	return tbl, nil
}

func (p *parser) parseKeyElem() (ast.KeyElem, error) {
	expr, err := p.parseExpr()
	if err != nil {
		return ast.KeyElem{}, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return ast.KeyElem{}, err
	}
	var kind string
	switch t := p.next(); t.Kind {
	case token.KwExact:
		kind = "exact"
	case token.KwLpm:
		kind = "lpm"
	case token.KwTernary:
		kind = "ternary"
	case token.KwOptional:
		kind = "optional"
	default:
		return ast.KeyElem{}, p.errf("expected match kind, found %s", t)
	}
	annos, err := p.parseAnnotations()
	if err != nil {
		return ast.KeyElem{}, err
	}
	if _, err := p.expect(token.Semicolon); err != nil {
		return ast.KeyElem{}, err
	}
	return ast.KeyElem{Expr: expr, MatchKind: kind, Annos: annos}, nil
}

// Statements.

func (p *parser) parseBlock() (*ast.BlockStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	blk := &ast.BlockStmt{Pos: lb.Pos}
	for !p.accept(token.RBrace) {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, st)
	}
	return blk, nil
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	switch t := p.cur(); t.Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.KwIf:
		return p.parseIf()
	case token.KwExit:
		p.next()
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return &ast.ExitStmt{Pos: t.Pos}, nil
	case token.KwReturn:
		p.next()
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return &ast.ReturnStmt{Pos: t.Pos}, nil
	case token.Ident:
		return p.parseCallOrAssign()
	default:
		return nil, p.errf("unexpected token %s at statement start", t)
	}
}

func (p *parser) parseIf() (ast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	kw := p.next() // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &ast.IfStmt{Pos: kw.Pos, Cond: cond, Then: then}
	if p.accept(token.KwElse) {
		if p.peekKind(token.KwIf) {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

// pathSegment consumes an identifier path segment; soft keywords that are
// legal member names (notably "apply" and "key") are accepted after a dot.
func (p *parser) pathSegment(afterDot bool) (token.Token, error) {
	t := p.cur()
	if t.Kind == token.Ident {
		return p.next(), nil
	}
	if afterDot {
		switch t.Kind {
		case token.KwApply, token.KwKey, token.KwSize, token.KwActions:
			p.next()
			return token.Token{Kind: token.Ident, Pos: t.Pos, Text: t.Kind.String()}, nil
		}
	}
	return token.Token{}, p.errf("expected identifier, found %s", t)
}

func (p *parser) parsePath() ([]string, token.Pos, error) {
	first, err := p.pathSegment(false)
	if err != nil {
		return nil, token.Pos{}, err
	}
	path := []string{first.Text}
	for p.accept(token.Dot) {
		seg, err := p.pathSegment(true)
		if err != nil {
			return nil, token.Pos{}, err
		}
		path = append(path, seg.Text)
	}
	return path, first.Pos, nil
}

func (p *parser) parseCallOrAssign() (ast.Stmt, error) {
	path, pos, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case token.LParen:
		call, err := p.finishCall(path, pos)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		return &ast.CallStmt{Pos: pos, Call: call}, nil
	case token.Assign:
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semicolon); err != nil {
			return nil, err
		}
		var lhs ast.Expr
		if len(path) == 1 {
			lhs = &ast.IdentExpr{Pos: pos, Name: path[0]}
		} else {
			lhs = &ast.FieldExpr{Pos: pos, Path: path}
		}
		return &ast.AssignStmt{Pos: pos, LHS: lhs, RHS: rhs}, nil
	default:
		return nil, p.errf("expected ( or = after %v", path)
	}
}

func (p *parser) finishCall(path []string, pos token.Pos) (*ast.CallExpr, error) {
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	call := &ast.CallExpr{Pos: pos, Name: path[len(path)-1], Recv: path[:len(path)-1]}
	for !p.accept(token.RParen) {
		if len(call.Args) > 0 {
			if _, err := p.expect(token.Comma); err != nil {
				return nil, err
			}
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
	}
	return call, nil
}

// Expressions, precedence climbing.

func (p *parser) parseExpr() (ast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseTernary()
}

func (p *parser) parseTernary() (ast.Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.Question) {
		return cond, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	y, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.TernaryExpr{Cond: cond, X: x, Y: y}, nil
}

// binaryPrec returns the precedence of a binary operator, or -1.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Or:
		return 3
	case token.Xor:
		return 4
	case token.And:
		return 5
	case token.Eq, token.Ne:
		return 6
	case token.Lt, token.Le, token.Gt, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	default:
		return -1
	}
}

func (p *parser) parseBinary(minPrec int) (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := binaryPrec(op)
		if prec < 0 || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryExpr{Pos: opTok.Pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	switch t := p.cur(); t.Kind {
	case token.Not, token.Tilde, token.Minus:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Pos: t.Pos, Op: t.Kind, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	switch t := p.cur(); t.Kind {
	case token.Int:
		p.next()
		return &ast.IntExpr{Pos: t.Pos, Value: t.Value, Width: t.Width}, nil
	case token.KwTrue:
		p.next()
		return &ast.BoolExpr{Pos: t.Pos, Value: true}, nil
	case token.KwFalse:
		p.next()
		return &ast.BoolExpr{Pos: t.Pos, Value: false}, nil
	case token.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case token.Ident:
		path, pos, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if p.peekKind(token.LParen) {
			return p.finishCall(path, pos)
		}
		if len(path) == 1 {
			return &ast.IdentExpr{Pos: pos, Name: path[0]}, nil
		}
		return &ast.FieldExpr{Pos: pos, Path: path}, nil
	default:
		return nil, p.errf("unexpected token %s in expression", t)
	}
}
