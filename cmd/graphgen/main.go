// Command graphgen writes workload graphs in the repository's text format,
// which cmd/hetrun -input reads back. Its -gen names are graph.Generators,
// built by graph.Generate: the same table cmd/hetrun -gen reads, so a name
// builds the same graph in both commands.
//
// Usage:
//
//	graphgen -gen gnm -n 1024 -m 8192 -weighted -o g.txt
//	graphgen -gen cycles2 -n 4096 > two-cycles.txt
//
// Exit codes: 0 ok, 1 the graph could not be written, 2 bad input (an
// unknown flag or generator), with nothing on stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hetmpc/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen      = fs.String("gen", "gnm", "generator: "+strings.Join(graph.Generators, ", "))
		n        = fs.Int("n", 1024, "vertices")
		m        = fs.Int("m", 8192, "edges (where applicable)")
		seed     = fs.Uint64("seed", 1, "seed")
		weighted = fs.Bool("weighted", false, "assign integer weights (gnm, connected, cut, complete): unique ones, except cut's, which stay in 1..16 so the planted cut stays minimal")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	g, err := graph.Generate(*gen, *n, *m, *seed, *weighted)
	if err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		return 2
	}

	w := stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "graphgen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	if err := graph.Write(w, g); err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "graphgen: n=%d m=%d Δ=%d weighted=%v\n", g.N, g.M(), g.MaxDegree(), g.Weighted)
	return 0
}
