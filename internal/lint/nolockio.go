package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// Nolockio is the PR 6 bug class: blocking I/O — file, network or
// database/sql calls — performed while a sync.Mutex/RWMutex is held turns
// every concurrent request into a convoy behind one slow disk or socket.
// The store's write-through design is "mutate under lock, snapshot outside
// it"; this analyzer keeps it that way.
//
// Tracking is lexical and per-function: an ExprStmt calling Lock/RLock on a
// receiver marks that receiver held; a matching Unlock/RUnlock releases it;
// a deferred Unlock keeps it held to the end of the function. Function
// literals are not entered (they run later, usually after the unlock), and
// Try* acquisitions are ignored.
//
// I/O behind an interface (a file-system seam a test can replace) is
// declared by a `//lint:io` line in the type's doc comment: every method
// called on a value of that type counts as I/O.
var Nolockio = &Analyzer{
	Name: "nolockio",
	Doc:  "forbid file/network/database I/O while a sync mutex is held",
	Run:  runNolockio,
}

func runNolockio(p *Pass) {
	l := &lockIO{Pass: p, ioTypes: ioTypes(p)}
	for _, f := range p.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			l.walkLocked(fd.Body.List, map[string]bool{})
		}
	}
}

// lockIO is one nolockio pass with the package's I/O types.
type lockIO struct {
	*Pass
	ioTypes map[types.Object]bool
}

// ioTypes returns the package's types whose doc comment (or, in a group
// without its own, the group's) holds a `//lint:io` line.
func ioTypes(p *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range p.Files() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool { return c.Text == "//lint:io" }) {
					out[p.Pkg.Info.Defs[ts.Name]] = true
				}
			}
		}
	}
	return out
}

// walkLocked processes a statement list, threading the held-mutex set
// through sequential statements and copying it into nested blocks (a lock
// acquired inside a branch does not lexically escape it).
func (p *lockIO) walkLocked(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				switch name, recv := mutexMethod(p.Pkg.Info, call); name {
				case "Lock", "RLock":
					held[exprKey(recv)] = true
					continue
				case "Unlock", "RUnlock":
					delete(held, exprKey(recv))
					continue
				}
			}
			p.checkIOUnderLock(s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the mutex held for the rest of the
			// function; I/O in the deferred call itself runs after all
			// sequential statements, so it is not inspected against the
			// current held set.
			continue
		case *ast.GoStmt:
			// The spawned goroutine runs concurrently without this
			// goroutine's locks; only the call operands are evaluated here.
			continue
		case *ast.BlockStmt:
			p.walkLocked(s.List, copyHeld(held))
		case *ast.IfStmt:
			if s.Init != nil {
				p.checkIOUnderLock(s.Init, held)
			}
			p.checkIOUnderLock(exprStmtOf(s.Cond), held)
			p.walkLocked(s.Body.List, copyHeld(held))
			if s.Else != nil {
				p.walkLocked([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			p.walkLocked(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			p.walkLocked(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.walkLocked(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					p.walkLocked(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					p.walkLocked(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			p.walkLocked([]ast.Stmt{s.Stmt}, held)
		default:
			p.checkIOUnderLock(s, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

// exprStmtOf wraps an expression so checkIOUnderLock can inspect it.
func exprStmtOf(e ast.Expr) ast.Stmt { return &ast.ExprStmt{X: e} }

// checkIOUnderLock reports every blocking I/O call inside stmt when at least
// one mutex is lexically held. Function literals are skipped: they execute
// later, outside the current critical section.
func (p *lockIO) checkIOUnderLock(stmt ast.Stmt, held map[string]bool) {
	if len(held) == 0 || stmt == nil {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what := ioCallName(p.Pass, call)
		if what == "" {
			what = p.ioTypeCall(call)
		}
		if what != "" {
			p.Reportf(call.Pos(), "%s while %s is held: move the I/O outside the critical section (copy what you need under the lock, then release it)", what, anyHeld(held))
		}
		return true
	})
}

func anyHeld(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// ioTypeCall returns "Type.Method" for a method called on a value of
// one of the package's I/O types, or "".
func (p *lockIO) ioTypeCall(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(p.ioTypes) == 0 {
		return ""
	}
	n, ok := p.Pkg.Info.TypeOf(sel.X).(*types.Named)
	if !ok || !p.ioTypes[n.Obj()] {
		return ""
	}
	return n.Obj().Name() + "." + sel.Sel.Name
}

// ioCallName classifies a call as blocking file/network/database I/O and
// returns a human-readable name for it, or "".
func ioCallName(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Pkg.Info, call)
	if fn == nil {
		return ""
	}
	pkg, name := funcPkgPath(fn), fn.Name()
	if recvNamed(fn) == nil {
		switch pkg {
		case "os":
			switch name {
			case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
				"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "MkdirTemp",
				"Stat", "Lstat", "ReadDir", "Truncate", "Chmod", "Chown", "Link", "Symlink":
				return "os." + name
			}
		case "net":
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket":
				return "net." + name
			}
		case "net/http":
			switch name {
			case "Get", "Post", "PostForm", "Head":
				return "http." + name
			}
		case "io/ioutil":
			switch name {
			case "ReadFile", "WriteFile", "ReadDir", "TempFile", "TempDir":
				return "ioutil." + name
			}
		}
		return ""
	}
	recv := recvNamed(fn)
	rpkg := ""
	if recv.Obj().Pkg() != nil {
		rpkg = recv.Obj().Pkg().Path()
	}
	rname := recv.Obj().Name()
	qualified := rname + "." + name
	switch rpkg {
	case "os":
		if rname == "File" {
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close", "Seek", "Truncate", "ReadDir", "Readdir", "Readdirnames":
				return "os." + qualified
			}
		}
	case "net":
		if rname == "Dialer" && (name == "Dial" || name == "DialContext") {
			return "net." + qualified
		}
	case "net/http":
		if rname == "Client" {
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "http." + qualified
			}
		}
	case "database/sql":
		switch rname {
		case "DB", "Tx", "Stmt", "Conn":
			switch name {
			case "Exec", "ExecContext", "Query", "QueryContext", "QueryRow", "QueryRowContext",
				"Prepare", "PrepareContext", "Ping", "PingContext", "Begin", "BeginTx",
				"Commit", "Rollback", "Close":
				return "sql." + qualified
			}
		}
	case "os/exec":
		if rname == "Cmd" {
			switch name {
			case "Run", "Start", "Output", "CombinedOutput", "Wait":
				return "exec." + qualified
			}
		}
	}
	return ""
}
