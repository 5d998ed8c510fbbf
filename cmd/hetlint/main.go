// Command hetlint runs the repo's static-invariant analyzers (DESIGN.md §13)
// over packages of this module:
//
//	go run ./cmd/hetlint ./...
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/usage error. Every
// diagnostic is either a bug to fix or a site to justify with a
// //hetlint:<key> comment (see internal/lint).
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"strings"

	"hetmpc/internal/lint"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			scope := "all packages"
			if a.EngineOnly {
				scope = "engine packages"
			}
			fmt.Printf("%-10s [%s, //hetlint:%s] %s\n", a.Name, scope, a.Key, a.Doc)
		}
		return 0
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return fail(err)
	}

	count := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			var ng *build.NoGoError
			if errors.As(err, &ng) {
				continue // directory with only build-tag-excluded files
			}
			return fail(err)
		}
		for _, d := range lint.RunPackage(pkg, lint.IsEnginePath(path), lint.All()) {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
			fmt.Println(d)
			count++
		}
	}

	if count > 0 {
		fmt.Fprintf(os.Stderr, "hetlint: %d diagnostic(s); fix or justify with //hetlint:<key> comments\n", count)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hetlint:", err)
	return 2
}
