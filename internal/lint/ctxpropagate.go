package lint

import (
	"go/ast"
)

// Ctxpropagate keeps cancellation flowing through the request path: outbound
// HTTP in the server and cluster packages must be built with
// http.NewRequestWithContext from a request-derived context. A bare
// http.NewRequest (context.Background under the hood) or an explicit
// context.Background()/TODO() on a request path survives client disconnects
// and deadlines, leaking goroutines and sockets under load. Background
// housekeeping loops that legitimately outlive requests carry //lint:ignore
// annotations.
var Ctxpropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "require context-derived http.NewRequestWithContext on server/cluster request paths",
	Applies: func(importPath string) bool {
		return pathHasSuffix(importPath, "internal/server", "internal/cluster")
	},
	Run: runCtxpropagate,
}

func runCtxpropagate(p *Pass) {
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if isPkgFunc(fn, "net/http", "NewRequest") {
				p.Reportf(call.Pos(), "http.NewRequest never carries a context: use http.NewRequestWithContext with the caller's context")
			}
			if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
				p.Reportf(call.Pos(), "context.%s on a request-path package: derive the context from the incoming request so cancellation propagates", fn.Name())
			}
			return true
		})
	}
}
