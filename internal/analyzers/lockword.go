package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockWord flags plain (non-atomic) reads and writes of variables and
// fields that are accessed through sync/atomic, or through the release
// stores arch.StoreRelease and arch.StoreRelease64, anywhere else in
// the package. A lock word read with a plain load can observe a torn or
// stale value; the thin-lock header is exactly such a word, and the
// paper's protocol is only sound if every access goes through the
// atomic helpers.
//
// Taking the address of such a field (`&o.header`) is allowed — that
// is how the atomic helpers are built — as is accessing it inside the
// sync/atomic call itself.
var LockWord = &Analyzer{
	Name:          "lockword",
	Doc:           "flag plain accesses to fields elsewhere accessed atomically",
	SkipTestFiles: true,
	Run:           runLockWord,
}

// archPath is the import path of the package whose release stores
// count as atomic accesses.
const archPath = "thinlock/internal/arch"

// isAtomicAddrFunc reports whether pkg.name is an atomic function whose
// first argument is the address of the word being operated on.
func isAtomicAddrFunc(pkg, name string) bool {
	if pkg == archPath {
		return name == "StoreRelease" || name == "StoreRelease64"
	}
	if pkg != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func runLockWord(pass *Pass) error {
	// Pass 1: every object whose address is passed to an atomic
	// function, with one representative position for the message.
	atomicObjs := map[types.Object]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
			if !ok || !isAtomicAddrFunc(pn.Imported().Path(), sel.Sel.Name) {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			if obj := addressedObject(pass, addr.X); obj != nil {
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = call.Pos()
				}
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}

	// Pass 2: flag uses of those objects that are neither under & nor
	// part of the atomic calls found above.
	for _, f := range pass.Files {
		addrTaken := map[ast.Expr]bool{}
		selIdent := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					addrTaken[x.X] = true
				}
			case *ast.SelectorExpr:
				// The Sel ident is handled via the SelectorExpr case
				// below; don't double-visit it as a bare Ident.
				selIdent[x.Sel] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			var obj types.Object
			var pos token.Pos
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if addrTaken[ast.Expr(e)] {
					return true
				}
				if sel, ok := pass.TypesInfo.Selections[e]; ok {
					obj = sel.Obj()
					pos = e.Sel.Pos()
				}
			case *ast.Ident:
				if addrTaken[ast.Expr(e)] || selIdent[e] {
					return true
				}
				obj = pass.TypesInfo.Uses[e]
				pos = e.Pos()
			default:
				return true
			}
			if obj == nil {
				return true
			}
			if first, hot := atomicObjs[obj]; hot {
				pass.Reportf(pos,
					"plain access to %s, which is accessed atomically at %s; a plain load or store of a lock word can race",
					obj.Name(), pass.Fset.Position(first))
			}
			return true
		})
	}
	return nil
}

// addressedObject resolves &expr to the field or variable object being
// addressed, or nil when it is not a simple var/field.
func addressedObject(pass *Pass, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			return sel.Obj()
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
		}
	case *ast.IndexExpr:
		// &arr[i]: attribute the array/slice variable itself.
		return addressedObject(pass, x.X)
	}
	return nil
}
