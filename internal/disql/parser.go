package disql

import (
	"sort"
	"strconv"
	"strings"

	"webdis/internal/nodequery"
	"webdis/internal/pre"
	"webdis/internal/relmodel"
)

// Parse translates a DISQL query into the formal web-query. The grammar
// (reconstructed from the paper's examples and the DISCOVER thesis it
// cites, extended with aggregation clauses) is:
//
//	query      := SELECT selitem (',' selitem)* FROM item+
//	              [GROUP BY colref (',' colref)*]
//	              [ORDER BY orderitem (',' orderitem)*]
//	              [LIMIT number]
//	selitem    := colref | agg
//	agg        := (COUNT|SUM|MIN|MAX) '(' colref ')' | COUNT '(' '*' ')'
//	orderitem  := selitem [ASC|DESC]
//	item       := WHERE orExpr
//	           |  relname var [SUCH THAT suchclause]  [',']
//	relname    := DOCUMENT | ANCHOR | RELINFON
//	suchclause := pathclause | orExpr
//	pathclause := source PRE var
//	source     := string | '(' string (',' string)* ')' | var
//	orExpr     := andExpr (OR andExpr)*
//	andExpr    := notExpr (AND notExpr)*
//	notExpr    := NOT notExpr | '(' orExpr ')' | cmp
//	cmp        := operand ('='|'!='|'<>'|'<'|'<='|'>'|'>='|CONTAINS|NOT CONTAINS) operand
//	operand    := string | number | colref
//	colref     := var '.' attr
//
// Every `document d such that <source> <PRE> d` clause opens a new
// sub-query (one stage of the web-query); the source of the first stage is
// the StartNode URL set, and the source of each later stage must be the
// document variable of the immediately preceding stage (the paper's
// query-forwarding chain). A WHERE item attaches to the sub-query that is
// open when it appears. The select list is split across stages by the
// variables it references (paper Section 2.3).
//
// A `colref = colref` comparison between two variables of one stage is an
// equi-join, which the operator pipeline executes as a hash join. Aggregates range
// over the distinct result set of the whole query; plain select columns
// must then appear in GROUP BY, aggregate arguments must reference
// final-stage variables, and GROUP BY may reference earlier stages'
// document attributes (they travel in the clone environment). GROUP,
// ORDER and LIMIT are reserved where a relation declaration could start.
//
// All failures return *SyntaxError and never panic (FuzzParse pins this).
func Parse(src string) (*WebQuery, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	w, err := p.query()
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		if _, ok := err.(*SyntaxError); ok {
			return nil, err
		}
		return nil, &SyntaxError{Offset: -1, Msg: err.Error(), Err: err}
	}
	return w, nil
}

// MustParse is Parse, panicking on error; for tests and fixed queries.
func MustParse(src string) *WebQuery {
	w, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return w
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes the current token; the trailing EOF token is sticky so
// runaway lookahead can never index past the slice.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// peek returns the token after the current one (EOF-clamped).
func (p *parser) peek() token {
	if p.pos+1 >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+1]
}

func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return serr(p.cur().pos, "expected %q, found %s at offset %d", kw, p.cur(), p.cur().pos)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.cur()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

// subquery accumulates one stage while parsing.
type subquery struct {
	pre       pre.Expr
	docVar    string
	srcVar    string   // document variable of the previous stage, or ""
	starts    []string // StartNode URLs (first stage only)
	startTerm string   // index("term") source (first stage only)
	vars      []nodequery.VarDecl
	where     *nodequery.Pred
	selects   []nodequery.ColRef
}

// tailSpec holds the parsed GROUP BY / ORDER BY / LIMIT clauses.
type tailSpec struct {
	groupBy []nodequery.ColRef
	orderBy []nodequery.OrderKey
	limit   int
}

func (t *tailSpec) empty() bool {
	return len(t.groupBy) == 0 && len(t.orderBy) == 0 && t.limit == 0
}

var relNames = map[string]bool{"document": true, "anchor": true, "relinfon": true}
var preSymbols = map[string]bool{"I": true, "L": true, "G": true, "N": true}
var aggKinds = map[string]nodequery.AggKind{
	"count": nodequery.AggCount,
	"sum":   nodequery.AggSum,
	"min":   nodequery.AggMin,
	"max":   nodequery.AggMax,
}

func (p *parser) query() (*WebQuery, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	var items []nodequery.OutputCol
	for {
		c, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, c)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	var subs []*subquery
	current := func() *subquery {
		if len(subs) == 0 {
			return nil
		}
		return subs[len(subs)-1]
	}
	for p.cur().kind != tokEOF {
		if p.acceptPunct(",") {
			continue
		}
		if p.isKeyword("group") || p.isKeyword("order") || p.isKeyword("limit") {
			break
		}
		if p.acceptKeyword("where") {
			pred, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			sq := current()
			if sq == nil {
				return nil, serr(p.cur().pos, "where clause before any relation declaration")
			}
			sq.where = nodequery.Conj(sq.where, pred)
			continue
		}
		t := p.cur()
		if t.kind != tokIdent || !relNames[strings.ToLower(t.text)] {
			return nil, serr(t.pos, "expected relation name or where, found %s at offset %d", t, t.pos)
		}
		rel := strings.ToLower(p.next().text)
		nameTok := p.next()
		if nameTok.kind != tokIdent {
			return nil, serr(nameTok.pos, "expected variable name after %q, found %s at offset %d", rel, nameTok, nameTok.pos)
		}
		name := nameTok.text
		if preSymbols[name] || relNames[strings.ToLower(name)] || strings.EqualFold(name, "index") {
			return nil, serr(nameTok.pos, "%q cannot be used as a variable name at offset %d", name, nameTok.pos)
		}
		hasSuch := false
		if p.acceptKeyword("such") {
			if err := p.expectKeyword("that"); err != nil {
				return nil, err
			}
			hasSuch = true
		}
		if rel == "document" {
			if !hasSuch {
				return nil, serr(nameTok.pos, "document variable %q needs a `such that <path>` clause at offset %d", name, nameTok.pos)
			}
			sq, err := p.pathClause(name)
			if err != nil {
				return nil, err
			}
			subs = append(subs, sq)
			continue
		}
		sq := current()
		if sq == nil {
			return nil, serr(nameTok.pos, "%s variable %q declared before any document variable", rel, name)
		}
		decl := nodequery.VarDecl{Name: name, Rel: rel}
		if hasSuch {
			pred, err := p.orExpr()
			if err != nil {
				return nil, err
			}
			decl.Cond = pred
		}
		sq.vars = append(sq.vars, decl)
	}
	tail, err := p.tail()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, serr(p.cur().pos, "unexpected %s after the query at offset %d", p.cur(), p.cur().pos)
	}
	return assemble(subs, items, tail)
}

// selectItem parses one select-list or order-by item: a plain column
// reference or an aggregate call. count/sum/min/max act as function
// names only when immediately followed by '('.
func (p *parser) selectItem() (nodequery.OutputCol, error) {
	t := p.cur()
	if t.kind == tokIdent {
		if kind, ok := aggKinds[strings.ToLower(t.text)]; ok &&
			p.peek().kind == tokPunct && p.peek().text == "(" {
			p.next() // function name
			p.next() // '('
			if p.acceptPunct("*") {
				if kind != nodequery.AggCount {
					return nodequery.OutputCol{}, serr(t.pos, "only count may aggregate over *, not %s at offset %d", strings.ToLower(t.text), t.pos)
				}
				if !p.acceptPunct(")") {
					return nodequery.OutputCol{}, serr(p.cur().pos, "missing ')' after count(* at offset %d", p.cur().pos)
				}
				return nodequery.OutputCol{Agg: nodequery.AggCount, Star: true}, nil
			}
			c, err := p.colref()
			if err != nil {
				return nodequery.OutputCol{}, err
			}
			if !p.acceptPunct(")") {
				return nodequery.OutputCol{}, serr(p.cur().pos, "missing ')' after aggregate argument at offset %d", p.cur().pos)
			}
			return nodequery.OutputCol{Agg: kind, Ref: c}, nil
		}
	}
	c, err := p.colref()
	if err != nil {
		return nodequery.OutputCol{}, err
	}
	return nodequery.OutputCol{Ref: c}, nil
}

// tail parses the optional GROUP BY / ORDER BY / LIMIT clauses, in that
// fixed order.
func (p *parser) tail() (*tailSpec, error) {
	t := &tailSpec{}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colref()
			if err != nil {
				return nil, err
			}
			t.groupBy = append(t.groupBy, c)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			k := nodequery.OrderKey{Col: item}
			if p.acceptKeyword("desc") {
				k.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			t.orderBy = append(t.orderBy, k)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		n := p.next()
		if n.kind != tokNumber {
			return nil, serr(n.pos, "limit needs a positive integer, found %s at offset %d", n, n.pos)
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 1 {
			return nil, serr(n.pos, "limit must be a positive integer, got %q at offset %d", n.text, n.pos)
		}
		t.limit = v
	}
	return t, nil
}

// pathClause parses `<source> <PRE> <targetVar>` for the document variable
// docVar and returns the new sub-query it opens.
func (p *parser) pathClause(docVar string) (*subquery, error) {
	sq := &subquery{docVar: docVar}
	t := p.cur()
	switch {
	case t.kind == tokString:
		sq.starts = []string{p.next().text}
	case t.kind == tokPunct && t.text == "(" && p.peek().kind == tokString:
		p.next() // '('
		for {
			st := p.next()
			if st.kind != tokString {
				return nil, serr(st.pos, "expected StartNode URL, found %s at offset %d", st, st.pos)
			}
			sq.starts = append(sq.starts, st.text)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if !p.acceptPunct(")") {
			return nil, serr(p.cur().pos, "missing ')' after StartNode list at offset %d", p.cur().pos)
		}
	case t.kind == tokIdent && strings.EqualFold(t.text, "index") &&
		p.peek().kind == tokPunct && p.peek().text == "(":
		p.next() // index
		p.next() // '('
		term := p.next()
		if term.kind != tokString {
			return nil, serr(term.pos, "index() needs a quoted term, found %s at offset %d", term, term.pos)
		}
		if !p.acceptPunct(")") {
			return nil, serr(p.cur().pos, "missing ')' after index term at offset %d", p.cur().pos)
		}
		sq.startTerm = term.text
	case t.kind == tokIdent && !preSymbols[t.text]:
		sq.srcVar = p.next().text
	default:
		return nil, serr(t.pos, "expected StartNode URL or document variable, found %s at offset %d", t, t.pos)
	}
	// Gather the PRE tokens: everything up to the target variable.
	var parts []string
	for {
		t := p.cur()
		switch {
		case t.kind == tokIdent && preSymbols[t.text]:
			parts = append(parts, p.next().text)
		case t.kind == tokNumber:
			parts = append(parts, p.next().text)
		case t.kind == tokPunct && (t.text == "(" || t.text == ")" || t.text == "|" || t.text == "*" || t.text == "·" || t.text == "."):
			parts = append(parts, p.next().text)
		case t.kind == tokIdent:
			if t.text != docVar {
				return nil, serr(t.pos, "path must end at the declared variable %q, found %s at offset %d", docVar, t, t.pos)
			}
			p.next()
			if len(parts) == 0 {
				return nil, serr(t.pos, "empty PRE in path to %q at offset %d", docVar, t.pos)
			}
			expr, err := pre.Parse(strings.Join(parts, " "))
			if err != nil {
				return nil, serrw(t.pos, err, "bad PRE %q: %v", strings.Join(parts, " "), err)
			}
			sq.pre = expr
			sq.vars = append([]nodequery.VarDecl{{Name: docVar, Rel: "document"}}, sq.vars...)
			return sq, nil
		default:
			return nil, serr(t.pos, "unexpected %s in PRE at offset %d", t, t.pos)
		}
	}
}

func (p *parser) colref() (nodequery.ColRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nodequery.ColRef{}, serr(t.pos, "expected column reference, found %s at offset %d", t, t.pos)
	}
	if !p.acceptPunct(".") {
		return nodequery.ColRef{}, serr(p.cur().pos, "expected '.' after %q at offset %d", t.text, p.cur().pos)
	}
	a := p.next()
	if a.kind != tokIdent {
		return nodequery.ColRef{}, serr(a.pos, "expected attribute name, found %s at offset %d", a, a.pos)
	}
	return nodequery.ColRef{Var: t.text, Col: strings.ToLower(a.text)}, nil
}

func (p *parser) orExpr() (*nodequery.Pred, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	kids := []*nodequery.Pred{left}
	for p.acceptKeyword("or") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &nodequery.Pred{Kind: nodequery.Or, Kids: kids}, nil
}

func (p *parser) andExpr() (*nodequery.Pred, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	kids := []*nodequery.Pred{left}
	for p.acceptKeyword("and") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &nodequery.Pred{Kind: nodequery.And, Kids: kids}, nil
}

func (p *parser) notExpr() (*nodequery.Pred, error) {
	if p.acceptKeyword("not") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &nodequery.Pred{Kind: nodequery.Not, Kids: []*nodequery.Pred{inner}}, nil
	}
	if p.acceptPunct("(") {
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptPunct(")") {
			return nil, serr(p.cur().pos, "missing ')' at offset %d", p.cur().pos)
		}
		return inner, nil
	}
	return p.cmp()
}

func (p *parser) cmp() (*nodequery.Pred, error) {
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("contains") {
		right, err := p.operand()
		if err != nil {
			return nil, err
		}
		return nodequery.Compare(left, nodequery.Contains, right), nil
	}
	if p.isKeyword("not") {
		p.pos++
		if err := p.expectKeyword("contains"); err != nil {
			return nil, err
		}
		right, err := p.operand()
		if err != nil {
			return nil, err
		}
		return nodequery.Compare(left, nodequery.NotContains, right), nil
	}
	t := p.next()
	if t.kind != tokPunct {
		return nil, serr(t.pos, "expected comparison operator, found %s at offset %d", t, t.pos)
	}
	var op nodequery.CmpOp
	switch t.text {
	case "=":
		op = nodequery.Eq
	case "!=", "<>":
		op = nodequery.Ne
	case "<":
		op = nodequery.Lt
	case "<=":
		op = nodequery.Le
	case ">":
		op = nodequery.Gt
	case ">=":
		op = nodequery.Ge
	default:
		return nil, serr(t.pos, "unknown operator %q at offset %d", t.text, t.pos)
	}
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return nodequery.Compare(left, op, right), nil
}

func (p *parser) operand() (nodequery.Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokString, tokNumber:
		p.pos++
		return nodequery.LitOperand(t.text), nil
	case tokIdent:
		c, err := p.colref()
		if err != nil {
			return nodequery.Operand{}, err
		}
		return nodequery.Operand{IsCol: true, Col: c}, nil
	}
	return nodequery.Operand{}, serr(t.pos, "expected operand, found %s at offset %d", t, t.pos)
}

// assemble chains the parsed sub-queries into a WebQuery, splits the
// select list across stages, and validates + attaches the aggregation
// tail as the query's OutputSpec.
func assemble(subs []*subquery, items []nodequery.OutputCol, tail *tailSpec) (*WebQuery, error) {
	if len(subs) == 0 {
		return nil, serr(-1, "query declares no document variable")
	}
	byVar := make(map[string]int) // variable -> stage index
	for i, sq := range subs {
		if i == 0 {
			if len(sq.starts) == 0 && sq.startTerm == "" {
				return nil, serr(-1, "first path must start from a StartNode URL or index() term, not variable %q", sq.srcVar)
			}
		} else {
			if sq.srcVar == "" {
				return nil, serr(-1, "stage %d must start from the previous document variable, not a URL", i+1)
			}
			if sq.srcVar != subs[i-1].docVar {
				return nil, serr(-1, "stage %d starts from %q; it must chain from the previous document variable %q",
					i+1, sq.srcVar, subs[i-1].docVar)
			}
		}
		for _, v := range sq.vars {
			if prev, dup := byVar[v.Name]; dup {
				return nil, serr(-1, "variable %q declared in both stage %d and stage %d", v.Name, prev+1, i+1)
			}
			byVar[v.Name] = i
		}
	}
	last := len(subs) - 1
	exports := make([]map[string]bool, len(subs))
	for i := range subs {
		exports[i] = make(map[string]bool)
	}

	grouped := len(tail.groupBy) > 0
	for _, c := range items {
		if c.Agg != nodequery.AggNone {
			grouped = true
		}
	}
	for _, k := range tail.orderBy {
		if k.Col.Agg != nodequery.AggNone {
			grouped = true
		}
	}

	var output *nodequery.OutputSpec
	if grouped {
		var err error
		output, err = assembleGrouped(subs, items, tail, byVar, last, exports)
		if err != nil {
			return nil, err
		}
	} else {
		// Classic split: each column goes to the stage declaring its
		// variable, preserving the user's order within each stage.
		for _, c := range items {
			i, ok := byVar[c.Ref.Var]
			if !ok {
				return nil, serr(-1, "select references undeclared variable %q", c.Ref.Var)
			}
			subs[i].selects = append(subs[i].selects, c.Ref)
		}
		if !tail.empty() {
			for _, k := range tail.orderBy {
				if byVar[k.Col.Ref.Var] != last || !selectedIn(items, k.Col.Ref) {
					return nil, serr(-1, "order by column %s must be selected from the final stage (or use group by)", k.Col.Ref)
				}
			}
			output = &nodequery.OutputSpec{OrderBy: tail.orderBy, Limit: tail.limit}
		}
	}

	// Correlated stages (the paper's footnote-2 extension): a later
	// stage's predicates may reference an *earlier* stage's document
	// variable. Such references become the stage's Outer list, and the
	// referenced columns become the earlier stage's Export list, carried
	// downstream in the clone's environment. Group-by keys of earlier
	// stages were already added to exports above.
	outers := make([][]nodequery.ColRef, len(subs))
	docStage := make(map[string]int, len(subs))
	for i, sq := range subs {
		docStage[sq.docVar] = i
	}
	for i, sq := range subs {
		local := make(map[string]bool, len(sq.vars))
		for _, v := range sq.vars {
			local[v.Name] = true
		}
		seen := make(map[string]bool)
		record := func(c nodequery.ColRef) error {
			if local[c.Var] || seen[c.String()] {
				return nil
			}
			j, ok := docStage[c.Var]
			if !ok || j >= i {
				return nil // nodequery.Validate reports undeclared variables
			}
			if !documentCol(c.Col) {
				return serr(-1, "%s: document variable %q (stage %d) has no attribute %q", c, c.Var, j+1, c.Col)
			}
			seen[c.String()] = true
			outers[i] = append(outers[i], c)
			exports[j][c.Col] = true
			return nil
		}
		preds := []*nodequery.Pred{sq.where}
		for _, v := range sq.vars {
			preds = append(preds, v.Cond)
		}
		for _, p := range preds {
			if err := walkColRefs(p, record); err != nil {
				return nil, err
			}
		}
	}

	w := &WebQuery{Start: subs[0].starts, StartTerm: subs[0].startTerm, Output: output}
	for i, sq := range subs {
		var export []string
		for col := range exports[i] {
			export = append(export, col)
		}
		sort.Strings(export)
		w.Stages = append(w.Stages, Stage{
			PRE:    sq.pre,
			Export: export,
			Query: &nodequery.Query{
				Vars:   sq.vars,
				Where:  sq.where,
				Select: sq.selects,
				Outer:  outers[i],
			},
		})
	}
	return w, nil
}

// assembleGrouped validates an aggregated query and derives the base
// (pre-aggregation) select list of each stage: the final stage projects
// every final-stage group key and every aggregate argument, earlier
// stages project their plain select items and export their group keys
// through the clone environment.
func assembleGrouped(subs []*subquery, items []nodequery.OutputCol, tail *tailSpec,
	byVar map[string]int, last int, exports []map[string]bool) (*nodequery.OutputSpec, error) {
	inGroup := func(r nodequery.ColRef) bool {
		for _, g := range tail.groupBy {
			if g == r {
				return true
			}
		}
		return false
	}
	for _, c := range items {
		if c.Agg == nodequery.AggNone && !inGroup(c.Ref) {
			return nil, serr(-1, "column %s must appear in the group by clause", c.Ref)
		}
	}
	for _, k := range tail.orderBy {
		if k.Col.Agg == nodequery.AggNone && !inGroup(k.Col.Ref) {
			return nil, serr(-1, "order by column %s is not grouped", k.Col.Ref)
		}
	}
	var base []nodequery.ColRef // final-stage pre-aggregation projection
	baseSeen := make(map[string]bool)
	addBase := func(r nodequery.ColRef) {
		if !baseSeen[r.String()] {
			baseSeen[r.String()] = true
			base = append(base, r)
		}
	}
	// Plain select items keep the classic per-stage split so earlier
	// stages still report their columns.
	for _, c := range items {
		if c.Agg != nodequery.AggNone {
			continue
		}
		i, ok := byVar[c.Ref.Var]
		if !ok {
			return nil, serr(-1, "select references undeclared variable %q", c.Ref.Var)
		}
		if i == last {
			addBase(c.Ref)
		} else {
			subs[i].selects = append(subs[i].selects, c.Ref)
		}
	}
	for _, g := range tail.groupBy {
		i, ok := byVar[g.Var]
		if !ok {
			return nil, serr(-1, "group by references undeclared variable %q", g.Var)
		}
		if i == last {
			addBase(g)
			continue
		}
		if subs[i].docVar != g.Var {
			return nil, serr(-1, "group by %s references non-document variable %q of an earlier stage", g, g.Var)
		}
		if !documentCol(g.Col) {
			return nil, serr(-1, "%s: document variable %q (stage %d) has no attribute %q", g, g.Var, i+1, g.Col)
		}
		exports[i][g.Col] = true
	}
	aggArg := func(c nodequery.OutputCol) error {
		if c.Agg == nodequery.AggNone || c.Star {
			return nil
		}
		i, ok := byVar[c.Ref.Var]
		if !ok {
			return serr(-1, "aggregate %s references undeclared variable %q", c, c.Ref.Var)
		}
		if i != last {
			return serr(-1, "aggregate %s must reference a variable of the final stage (stage %d)", c, last+1)
		}
		addBase(c.Ref)
		return nil
	}
	for _, c := range items {
		if err := aggArg(c); err != nil {
			return nil, err
		}
	}
	for _, k := range tail.orderBy {
		if err := aggArg(k.Col); err != nil {
			return nil, err
		}
	}
	if len(base) == 0 {
		// Pure count(*) over earlier-stage groups: ship a hidden column so
		// every matching node contributes distinct rows to count.
		base = []nodequery.ColRef{{Var: subs[last].docVar, Col: "url"}}
	}
	subs[last].selects = append(subs[last].selects, base...)
	return &nodequery.OutputSpec{
		Cols:    items,
		GroupBy: tail.groupBy,
		OrderBy: tail.orderBy,
		Limit:   tail.limit,
	}, nil
}

func selectedIn(items []nodequery.OutputCol, r nodequery.ColRef) bool {
	for _, c := range items {
		if c.Agg == nodequery.AggNone && c.Ref == r {
			return true
		}
	}
	return false
}

// documentCol reports whether col is an attribute of the DOCUMENT virtual
// relation (the only relation whose values may cross stages: it has
// exactly one tuple per node, so the binding is single-valued).
func documentCol(col string) bool {
	for _, c := range relmodel.Schemas[relmodel.RelDocument] {
		if c == col {
			return true
		}
	}
	return false
}

// walkColRefs invokes fn on every column reference of a predicate tree.
func walkColRefs(p *nodequery.Pred, fn func(nodequery.ColRef) error) error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case nodequery.Cmp:
		if p.Left.IsCol {
			if err := fn(p.Left.Col); err != nil {
				return err
			}
		}
		if p.Right.IsCol {
			if err := fn(p.Right.Col); err != nil {
				return err
			}
		}
	case nodequery.And, nodequery.Or, nodequery.Not:
		for _, k := range p.Kids {
			if err := walkColRefs(k, fn); err != nil {
				return err
			}
		}
	}
	return nil
}
