// Package statesync proves checkpoint field coverage for the repo's
// stateful sketches: every field of a checkpointed type, of its
// checkpoint image, and of the structs the image reaches must be
// referenced by the encode and decode paths that claim to carry it.
// "Added a field, forgot the codec" fails silently: the forgotten
// field zero-values on resume and no test notices until an estimate is
// subtly wrong.
//
// A type T is anchored when it declares a State/state method returning
// a same-package named struct S (the checkpoint image). The encode
// path is the State method's same-package call closure; the decode
// path is the closure of every package function named Restore* or
// Resume* that mentions S. The analyzer then requires:
//
//   - every field of S is explicitly set or read on the encode path
//     (whole-value copies do not count for S: a keyed literal that
//     forgets a field still copies cleanly and still loses the field),
//   - every field of S is explicitly read on the decode path,
//   - every field of T is referenced (or whole-value covered) by the
//     union of encode and decode,
//   - every field of each same-package struct reachable from S (and
//     each unexported one reachable from T) is covered by that union.
//
// A transient field of T (a scratch buffer) is covered by naming it in
// the constructor the decode path calls.
//
// Findings are latent correctness bugs by contract (ISSUE 7): fix the
// codec, do not suppress.
package statesync

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"fullweb/internal/lint/analysis"
	"fullweb/internal/lint/dataflow"
)

// Analyzer is the statesync rule.
var Analyzer = &analysis.Analyzer{
	Name: "statesync",
	Doc:  "proves every field of checkpointed state structs is covered by their encode and decode paths",
	Run:  run,
}

// anchor is one checkpointed type with its codec roots.
type anchor struct {
	live    *types.Named // T, the live state type
	image   *types.Named // S, the checkpoint image State() returns
	encode  *types.Func  // the State/state method
	decodes []*types.Func
}

func run(pass *analysis.Pass) (any, error) {
	decls := dataflow.Decls(pass.Files, pass.TypesInfo)
	anchors := findAnchors(pass, decls)
	if len(anchors) == 0 {
		return nil, nil
	}
	anchored := make(map[*types.Named]bool)
	for _, a := range anchors {
		anchored[a.live] = true
		anchored[a.image] = true
	}
	for _, a := range anchors {
		checkAnchor(pass, decls, a, anchored)
	}
	return nil, nil
}

// findAnchors locates every type declaring a State/state method that
// returns a same-package named struct, plus its Restore*/Resume*
// decode roots.
func findAnchors(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) []*anchor {
	var anchors []*anchor
	for fn := range decls {
		recv := recvNamed(fn)
		if recv == nil || (fn.Name() != "State" && fn.Name() != "state") {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		image := dataflow.NamedStructOf(sig.Results().At(0).Type())
		if image == nil || image.Obj().Pkg() != pass.Pkg || image == recv {
			continue
		}
		anchors = append(anchors, &anchor{live: recv, image: image, encode: fn})
	}
	// Attach decode roots by name pattern + type mention: a
	// package function Restore*/Resume* whose signature mentions the
	// image or the live type (RestoreStreamer(st) *Streamer and
	// ResumeEngine(...) *Engine both qualify), or a restore method on
	// the live type taking the image (the secondTracker shape).
	for _, a := range anchors {
		for fn, fd := range decls {
			name := fn.Name()
			switch {
			case strings.HasPrefix(name, "Restore") || strings.HasPrefix(name, "Resume"):
				if fn.Type().(*types.Signature).Recv() != nil {
					continue
				}
				if signatureMentions(fn, a.image) || signatureMentions(fn, a.live) || mentionsType(pass, fd, a.image) {
					a.decodes = append(a.decodes, fn)
				}
			case (name == "restore" || name == "Restore") && recvNamed(fn) == a.live:
				if signatureMentions(fn, a.image) {
					a.decodes = append(a.decodes, fn)
				}
			}
		}
		sort.Slice(a.decodes, func(i, j int) bool { return a.decodes[i].Name() < a.decodes[j].Name() })
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].live.Obj().Name() < anchors[j].live.Obj().Name() })
	return anchors
}

func checkAnchor(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, a *anchor, anchored map[*types.Named]bool) {
	info := pass.TypesInfo
	encodeFns := dataflow.Closure(decls, info, a.encode)
	encMentions := dataflow.FieldMentions(info, encodeFns)

	if len(a.decodes) == 0 {
		pass.Reportf(decls[a.encode].Name.Pos(),
			"%s has a checkpoint image (%s) but no Restore*/Resume* decode path mentions it; checkpointed state cannot be restored",
			a.live.Obj().Name(), a.image.Obj().Name())
		return
	}
	decodeFns := dataflow.Closure(decls, info, a.decodes...)
	decMentions := dataflow.FieldMentions(info, decodeFns)

	// Image fields must be explicitly mentioned in each direction
	// separately: a forgotten field zero-values silently on either end.
	if missing := missingFields(a.image, encMentions, nil); len(missing) > 0 {
		pass.Reportf(decls[a.encode].Name.Pos(),
			"encode path of %s never sets checkpoint image field(s) %s of %s; the field(s) will checkpoint as zero",
			a.live.Obj().Name(), strings.Join(missing, ", "), a.image.Obj().Name())
	}
	if missing := missingFields(a.image, decMentions, nil); len(missing) > 0 {
		pass.Reportf(decls[a.decodes[0]].Name.Pos(),
			"decode path of %s never reads checkpoint image field(s) %s of %s; the field(s) are lost on restore",
			a.live.Obj().Name(), strings.Join(missing, ", "), a.image.Obj().Name())
	}

	// Live fields and reachable auxiliary structs are covered by the
	// union of both directions; whole-value copies count (copying a
	// struct carries every field).
	unionFns := append(append([]*ast.FuncDecl(nil), encodeFns...), decodeFns...)
	unionMentions := dataflow.FieldMentions(info, unionFns)
	for enc := range encMentions {
		unionMentions[enc] = true
	}
	unionWhole := dataflow.WholeValueUses(info, unionFns)
	if missing := missingFields(a.live, unionMentions, unionWhole); len(missing) > 0 {
		pass.Reportf(decls[a.encode].Name.Pos(),
			"field(s) %s of %s are referenced by neither the encode nor the decode path; live state silently drops on a checkpoint round trip",
			strings.Join(missing, ", "), a.live.Obj().Name())
	}
	for _, aux := range reachableStructs(pass, a, anchored) {
		if missing := missingFields(aux, unionMentions, unionWhole); len(missing) > 0 {
			pass.Reportf(decls[a.encode].Name.Pos(),
				"field(s) %s of %s (reached from %s state) are referenced by neither the encode nor the decode path",
				strings.Join(missing, ", "), aux.Obj().Name(), a.live.Obj().Name())
		}
	}
}

// missingFields lists named's fields absent from mentions, unless the
// whole type was value-covered. The blank field and embedded struct
// markers are never required.
func missingFields(named *types.Named, mentions map[*types.Var]bool, whole map[*types.Named]bool) []string {
	if whole[named] {
		return nil
	}
	st := dataflow.StructUnder(named)
	if st == nil {
		return nil
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" || mentions[f] {
			continue
		}
		missing = append(missing, f.Name())
	}
	return missing
}

// reachableStructs walks the field graph from the anchor's live and
// image types collecting same-package auxiliary structs whose fields
// the codec must also carry: every struct reachable from the image
// (it is serialized wholesale) and unexported structs reachable from
// the live type (exported live-side types — configs, stats — have
// contracts of their own and are excluded). Types that are themselves
// anchored are checked by their own anchor, not here.
func reachableStructs(pass *analysis.Pass, a *anchor, anchored map[*types.Named]bool) []*types.Named {
	seen := map[*types.Named]bool{a.live: true, a.image: true}
	var out []*types.Named
	var walk func(t types.Type, imageSide bool)
	walk = func(t types.Type, imageSide bool) {
		switch u := t.(type) {
		case *types.Named:
			if u.Obj().Pkg() != pass.Pkg {
				return
			}
			if _, isStruct := u.Underlying().(*types.Struct); !isStruct {
				walk(u.Underlying(), imageSide)
				return
			}
			if seen[u] {
				return
			}
			seen[u] = true
			if !anchored[u] && (imageSide || !u.Obj().Exported()) {
				out = append(out, u)
			}
			st := u.Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				walk(st.Field(i).Type(), imageSide)
			}
		case *types.Pointer:
			walk(u.Elem(), imageSide)
		case *types.Slice:
			walk(u.Elem(), imageSide)
		case *types.Array:
			walk(u.Elem(), imageSide)
		case *types.Map:
			walk(u.Elem(), imageSide)
		}
	}
	liveStruct := dataflow.StructUnder(a.live)
	for i := 0; liveStruct != nil && i < liveStruct.NumFields(); i++ {
		walk(liveStruct.Field(i).Type(), false)
	}
	imageStruct := dataflow.StructUnder(a.image)
	for i := 0; imageStruct != nil && i < imageStruct.NumFields(); i++ {
		walk(imageStruct.Field(i).Type(), true)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj().Name() < out[j].Obj().Name() })
	return out
}

// recvNamed returns the named struct type a method's receiver is
// declared on (through one pointer), or nil for non-methods.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return dataflow.NamedStructOf(t)
}

// mentionsType reports whether decl references named's type name.
func mentionsType(pass *analysis.Pass, decl *ast.FuncDecl, named *types.Named) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == named.Obj() {
			found = true
			return false
		}
		return true
	})
	return found
}

// signatureMentions reports whether named appears in fn's parameter or
// result types.
func signatureMentions(fn *types.Func, named *types.Named) bool {
	sig := fn.Type().(*types.Signature)
	check := func(tup *types.Tuple) bool {
		for i := 0; i < tup.Len(); i++ {
			if typeMentions(tup.At(i).Type(), named, make(map[types.Type]bool)) {
				return true
			}
		}
		return false
	}
	return check(sig.Params()) || check(sig.Results())
}

func typeMentions(t types.Type, named *types.Named, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if t == named {
		return true
	}
	switch u := t.(type) {
	case *types.Pointer:
		return typeMentions(u.Elem(), named, seen)
	case *types.Slice:
		return typeMentions(u.Elem(), named, seen)
	case *types.Array:
		return typeMentions(u.Elem(), named, seen)
	case *types.Map:
		return typeMentions(u.Key(), named, seen) || typeMentions(u.Elem(), named, seen)
	}
	return false
}
