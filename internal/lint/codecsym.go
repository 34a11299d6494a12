package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CodecSym statically matches the encode and decode halves of every
// binary wire codec registered with rtnode.RegisterWireCodec.
//
// The hand-rolled codec (rtnode/codec.go) exists because a reflective
// encoder's per-message overhead is exactly the software cost the paper
// says kills fine-grain parallelism on a cluster — but it is not
// self-describing: nothing at runtime checks that the field sequence
// Enc writes is the sequence Dec reads. A drifted pair (a field added
// to one side, a Varint read where a Uvarint was written, two fields
// swapped) does not fail loudly; it decodes the wrong bytes into the
// wrong fields and corrupts pages in flight. This analyzer recovers
// each half's wire shape — the ordered sequence of primitive reads or
// writes, with length-prefixed repetition, fixed-size array repetition,
// conditional segments, and the EncodeAny/DecodeAny nesting point —
// by walking the registered functions and, interprocedurally, the
// same-package helpers they call (encPageData, decTask, ...), then
// requires the two shapes to match op for op: count, order, and width.
//
// Varint and Uvarint are distinct widths (zig-zag changes the bit
// layout); Bytes and String are interchangeable (identical
// length-prefixed framing). Branches whose arms carry no wire
// operations — decoder bounds guards, nil-normalization — are ignored;
// a branch that conditionally reads or writes matches the same ops
// unconditional or conditional on the other side (presence is a runtime
// property the analyzer cannot see, but the op sequence still must
// agree). A codec that manipulates the raw buffer (Enc.B, Dec.Off)
// directly, calls an unknown function with the encoder in hand, or
// splits shapes across unequal branches is beyond the abstraction and
// is skipped rather than guessed at.
var CodecSym = &Analyzer{
	Name: "codecsym",
	Doc: "require the Enc and Dec halves of every registered binary wire codec to " +
		"read and write the same field sequence (count, order, and width)",
	Run: runCodecSym,
}

// wireOp is one primitive codec operation, identified by wire format.
type wireOp int

const (
	opNone    wireOp = iota
	opUvarint        // unsigned varint
	opVarint         // zig-zag varint
	opF64            // 8 fixed bytes
	opBool           // 1 byte
	opBytes          // uvarint length + raw bytes (Bytes and String)
	opAny            // nested EncodeAny/DecodeAny framing
)

func (o wireOp) String() string {
	switch o {
	case opUvarint:
		return "uvarint"
	case opVarint:
		return "varint"
	case opF64:
		return "f64"
	case opBool:
		return "bool"
	case opBytes:
		return "bytes"
	case opAny:
		return "any"
	}
	return "?"
}

// primOps maps Enc/Dec method names to their wire op. The two types
// deliberately mirror each other's method set.
var primOps = map[string]wireOp{
	"Uvarint": opUvarint,
	"Varint":  opVarint,
	"F64":     opF64,
	"Bool":    opBool,
	"Bytes":   opBytes,
	"String":  opBytes,
}

// A shapeNode is one element of a wire shape: a primitive op, a
// repeated sub-shape (loop), or a conditionally present sub-shape.
type shapeNode struct {
	op    wireOp
	loop  []shapeNode // non-nil: repeated body
	fixed int         // >0: loop over a fixed-size array of this length
	opt   []shapeNode // non-nil: conditionally present segment
	label string      // optional field name (WIRE.lock manifests only)
}

func renderShape(s []shapeNode) string {
	var b strings.Builder
	for i, n := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case n.loop != nil:
			if n.fixed > 0 {
				fmt.Fprintf(&b, "%d×[%s]", n.fixed, renderShape(n.loop))
			} else {
				fmt.Fprintf(&b, "×[%s]", renderShape(n.loop))
			}
		case n.opt != nil:
			fmt.Fprintf(&b, "?(%s)", renderShape(n.opt))
		default:
			b.WriteString(n.op.String())
			if n.label != "" {
				b.WriteByte(':')
				b.WriteString(n.label)
			}
		}
	}
	return b.String()
}

func runCodecSym(pass *Pass) {
	decls := funcDecls(pass.Files, pass.Info)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := useOf(pass.Info, call.Fun)
			if !isPkgObj(obj, "filaments/internal/rtnode", "RegisterWireCodec") || len(call.Args) != 4 {
				return true
			}
			checkCodecPair(pass, decls, call)
			return true
		})
	}
}

func checkCodecPair(pass *Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) {
	protoName := "?"
	if tv, ok := pass.Info.Types[ast.Unparen(call.Args[0])]; ok && tv.Type != nil {
		protoName = types.TypeString(tv.Type, types.RelativeTo(pass.Pkg))
	}
	tag := "?"
	if tv, ok := pass.Info.Types[call.Args[1]]; ok && tv.Value != nil {
		tag = tv.Value.String()
	}

	encX := &shapeExtractor{info: pass.Info, decls: decls}
	enc := encX.fromExpr(call.Args[2])
	decX := &shapeExtractor{info: pass.Info, decls: decls}
	dec := decX.fromExpr(call.Args[3])
	if encX.opaque || decX.opaque {
		return // beyond the wire-shape abstraction; see the analyzer doc
	}
	if why := matchShapes(enc, dec); why != "" {
		pass.Reportf(call.Args[3].Pos(),
			"wire codec for %s (tag %s) is asymmetric: Enc writes [%s] but Dec reads [%s] — %s; a drifted codec corrupts this payload on the wire",
			protoName, tag, renderShape(enc), renderShape(dec), why)
	}
}

// --- Shape extraction. ---

type shapeExtractor struct {
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	stack []*types.Func // inlining chain, for cycle detection
	// labels: record the encoded field's name on each primitive op
	// (best effort, from the argument expression), for the WIRE.lock
	// manifest — a same-width field reorder then still changes the
	// rendered shape.
	labels bool
	opaque bool
}

// fromExpr extracts the shape of a codec function expression: a literal
// or a reference to a same-package declaration.
func (x *shapeExtractor) fromExpr(fn ast.Expr) []shapeNode {
	switch e := ast.Unparen(fn).(type) {
	case *ast.FuncLit:
		return x.stmts(e.Body.List)
	default:
		if callee, ok := useOf(x.info, e).(*types.Func); ok {
			return x.inline(callee)
		}
	}
	x.opaque = true
	return nil
}

// inline extracts the shape of a called same-package function body.
func (x *shapeExtractor) inline(fn *types.Func) []shapeNode {
	fd, ok := x.decls[fn]
	if !ok {
		x.opaque = true // no body in this package; could hide wire ops
		return nil
	}
	for _, f := range x.stack {
		if f == fn {
			x.opaque = true // recursive codec; no finite shape
			return nil
		}
	}
	x.stack = append(x.stack, fn)
	s := x.stmts(fd.Body.List)
	x.stack = x.stack[:len(x.stack)-1]
	return s
}

func (x *shapeExtractor) stmts(list []ast.Stmt) []shapeNode {
	var out []shapeNode
	for _, s := range list {
		out = append(out, x.stmt(s)...)
		if x.opaque {
			return nil
		}
	}
	return out
}

func (x *shapeExtractor) stmt(s ast.Stmt) []shapeNode {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.ExprStmt:
		return x.expr(s.X)
	case *ast.AssignStmt:
		var out []shapeNode
		for _, r := range s.Rhs {
			out = append(out, x.expr(r)...)
		}
		for _, l := range s.Lhs {
			// Index/selector targets can hold ops (rare) and raw
			// buffer stores (opaque); plain idents cannot.
			if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
				out = append(out, x.expr(l)...)
			}
		}
		return out
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		var out []shapeNode
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					out = append(out, x.expr(v)...)
				}
			}
		}
		return out
	case *ast.ReturnStmt:
		var out []shapeNode
		for _, r := range s.Results {
			out = append(out, x.expr(r)...)
		}
		return out
	case *ast.IfStmt:
		out := x.stmt(s.Init)
		out = append(out, x.expr(s.Cond)...)
		thenS := x.stmts(s.Body.List)
		var elseS []shapeNode
		if s.Else != nil {
			elseS = x.stmt(s.Else)
		}
		switch {
		case len(thenS) == 0 && len(elseS) == 0:
			// Bounds guards, Fail() arms, normalization: no wire ops.
			return out
		case len(elseS) == 0:
			return append(out, shapeNode{opt: thenS})
		case len(thenS) == 0:
			return append(out, shapeNode{opt: elseS})
		case matchShapes(thenS, elseS) == "":
			return append(out, thenS...)
		}
		x.opaque = true // branch-dependent wire shape
		return nil
	case *ast.BlockStmt:
		return x.stmts(s.List)
	case *ast.ForStmt:
		out := x.stmt(s.Init)
		out = append(out, x.expr(s.Cond)...)
		out = append(out, x.stmt(s.Post)...)
		if body := x.stmts(s.Body.List); len(body) > 0 {
			out = append(out, shapeNode{loop: body})
		}
		return out
	case *ast.RangeStmt:
		out := x.expr(s.X)
		if body := x.stmts(s.Body.List); len(body) > 0 {
			out = append(out, shapeNode{loop: body, fixed: x.rangeLen(s.X)})
		}
		return out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Multi-way shape divergence is beyond the abstraction; only
		// op-free switches pass.
		if x.containsOps(s) {
			x.opaque = true
			return nil
		}
		return nil
	case *ast.DeferStmt, *ast.GoStmt:
		// Ops deferred or spawned run out of sequence.
		if x.containsOps(s) {
			x.opaque = true
		}
		return nil
	case *ast.BranchStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		return nil
	case *ast.LabeledStmt:
		return x.stmt(s.Stmt)
	case *ast.SendStmt:
		return append(x.expr(s.Chan), x.expr(s.Value)...)
	default:
		if x.containsOps(s) {
			x.opaque = true
		}
		return nil
	}
}

// expr collects the wire ops an expression performs, in evaluation
// order.
func (x *shapeExtractor) expr(e ast.Expr) []shapeNode {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.CallExpr:
		return x.call(e)
	case *ast.ParenExpr:
		return x.expr(e.X)
	case *ast.UnaryExpr:
		return x.expr(e.X)
	case *ast.BinaryExpr:
		return append(x.expr(e.X), x.expr(e.Y)...)
	case *ast.SelectorExpr:
		// Direct access to the raw codec state (Enc.B, Dec.Off) moves
		// the stream without a recognizable op.
		if x.isCodecRecv(e.X) && (e.Sel.Name == "B" || e.Sel.Name == "Off") {
			x.opaque = true
			return nil
		}
		return x.expr(e.X)
	case *ast.IndexExpr:
		return append(x.expr(e.X), x.expr(e.Index)...)
	case *ast.SliceExpr:
		out := x.expr(e.X)
		out = append(out, x.expr(e.Low)...)
		out = append(out, x.expr(e.High)...)
		return append(out, x.expr(e.Max)...)
	case *ast.StarExpr:
		return x.expr(e.X)
	case *ast.TypeAssertExpr:
		return x.expr(e.X)
	case *ast.KeyValueExpr:
		return x.expr(e.Value)
	case *ast.CompositeLit:
		var out []shapeNode
		for _, elt := range e.Elts {
			out = append(out, x.expr(elt)...)
		}
		return out
	case *ast.FuncLit:
		if x.containsOps(e.Body) {
			x.opaque = true
		}
		return nil
	default:
		return nil
	}
}

// call handles one call: argument ops first (evaluation order), then
// the call itself — a primitive, the EncodeAny/DecodeAny pair, an inlined
// same-package helper, or an ignorable leaf.
func (x *shapeExtractor) call(c *ast.CallExpr) []shapeNode {
	var out []shapeNode
	for _, a := range c.Args {
		out = append(out, x.expr(a)...)
	}

	// Enc/Dec primitive method?
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && x.isCodecRecv(sel.X) {
		if op, ok := primOps[sel.Sel.Name]; ok {
			n := shapeNode{op: op}
			if x.labels && len(c.Args) > 0 {
				n.label = labelExpr(c.Args[0])
			}
			return append(out, n)
		}
		switch sel.Sel.Name {
		case "Fail", "Remaining", "Bad":
			return out
		}
		// An unknown method on the codec value (fixtures aside, there
		// are none) could do anything to the stream.
		x.opaque = true
		return nil
	}

	obj := useOf(x.info, c.Fun)
	switch {
	case isPkgObj(obj, "filaments/internal/rtnode", "EncodeAny"),
		isPkgObj(obj, "filaments/internal/rtnode", "DecodeAny"):
		return append(out, shapeNode{op: opAny})
	}
	if fn, ok := obj.(*types.Func); ok {
		if _, local := x.decls[fn]; local {
			return append(out, x.inline(fn)...)
		}
		// A foreign callee handed the live Enc/Dec can move the stream
		// invisibly; anything else cannot touch it.
		for _, a := range c.Args {
			if tv, ok := x.info.Types[a]; ok && (isPkgType(tv.Type, "filaments/internal/rtnode", "Enc") || isPkgType(tv.Type, "filaments/internal/rtnode", "Dec")) {
				x.opaque = true
				return nil
			}
		}
	}
	return out
}

// isCodecRecv reports whether e is a value of type rtnode.Enc or
// rtnode.Dec (possibly behind a pointer).
func (x *shapeExtractor) isCodecRecv(e ast.Expr) bool {
	tv, ok := x.info.Types[e]
	if !ok {
		return false
	}
	return isPkgType(tv.Type, "filaments/internal/rtnode", "Enc") ||
		isPkgType(tv.Type, "filaments/internal/rtnode", "Dec")
}

// rangeLen returns the length of e's type when ranging over it repeats
// the body a fixed number of times (an array), else 0.
func (x *shapeExtractor) rangeLen(e ast.Expr) int {
	tv, ok := x.info.Types[e]
	if !ok || tv.Type == nil {
		return 0
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	if arr, ok := t.(*types.Array); ok {
		return int(arr.Len())
	}
	return 0
}

// containsOps reports whether any recognizable wire op appears under n
// (used to decide whether an unmodelled construct can be ignored).
func (x *shapeExtractor) containsOps(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && x.isCodecRecv(sel.X) {
			if _, isOp := primOps[sel.Sel.Name]; isOp {
				found = true
				return false
			}
		}
		obj := useOf(x.info, call.Fun)
		if isPkgObj(obj, "filaments/internal/rtnode", "EncodeAny") || isPkgObj(obj, "filaments/internal/rtnode", "DecodeAny") {
			found = true
			return false
		}
		if fn, ok := obj.(*types.Func); ok {
			if fd, local := x.decls[fn]; local {
				// One level of indirection is enough for the guards
				// this is used on; recursion is cycle-checked in
				// inline, not here.
				if x.containsOps(fd.Body) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// --- Shape matching. ---

// matchShapes reports "" when enc and dec agree, or a human-readable
// first point of divergence.
func matchShapes(enc, dec []shapeNode) string {
	return matchSeq(enc, dec, 1)
}

// matchSeq matches two shape sequences; step numbers ops for messages.
func matchSeq(a, b []shapeNode, step int) string {
	switch {
	case len(a) == 0 && len(b) == 0:
		return ""
	case len(a) > 0 && a[0].opt != nil:
		// A conditional segment must match the other side's ops when
		// taken; presence itself is a runtime property.
		if why := matchSeq(append(append([]shapeNode{}, a[0].opt...), a[1:]...), b, step); why == "" {
			return ""
		}
		return matchSeq(a[1:], b, step)
	case len(b) > 0 && b[0].opt != nil:
		if why := matchSeq(a, append(append([]shapeNode{}, b[0].opt...), b[1:]...), step); why == "" {
			return ""
		}
		return matchSeq(a, b[1:], step)
	case len(a) == 0:
		return fmt.Sprintf("Dec reads %d op(s) past the end of the encoding (first extra: %s)", len(b), renderShape(b[:1]))
	case len(b) == 0:
		return fmt.Sprintf("Enc writes %d op(s) Dec never reads (first unread: %s)", len(a), renderShape(a[:1]))
	}
	an, bn := a[0], b[0]
	switch {
	case an.loop != nil && bn.loop != nil:
		if an.fixed != bn.fixed {
			return fmt.Sprintf("step %d: Enc repeats %s but Dec repeats %s", step, loopCount(an), loopCount(bn))
		}
		if why := matchSeq(an.loop, bn.loop, 1); why != "" {
			return fmt.Sprintf("step %d, inside the repeated segment: %s", step, why)
		}
	case an.loop != nil:
		return fmt.Sprintf("step %d: Enc writes a repeated segment [%s] but Dec reads %s", step, renderShape(an.loop), bn.op)
	case bn.loop != nil:
		return fmt.Sprintf("step %d: Enc writes %s but Dec reads a repeated segment [%s]", step, an.op, renderShape(bn.loop))
	case an.op != bn.op:
		return fmt.Sprintf("step %d: Enc writes %s but Dec reads %s", step, an.op, bn.op)
	}
	return matchSeq(a[1:], b[1:], step+1)
}

func loopCount(n shapeNode) string {
	if n.fixed > 0 {
		return fmt.Sprintf("a fixed-size array of %d", n.fixed)
	}
	return "a counted sequence"
}

// labelExpr renders the field name an encoder argument names: the final
// selector of m.Gen, through conversions like uint64(m.Gen). Best
// effort; unknown shapes label as "".
func labelExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return labelExpr(e.X)
	case *ast.StarExpr:
		return labelExpr(e.X)
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			return labelExpr(e.Args[0])
		}
	case *ast.SliceExpr:
		return labelExpr(e.X)
	}
	return ""
}
