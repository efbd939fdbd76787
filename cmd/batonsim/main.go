// Command batonsim reproduces the evaluation of the BATON paper: it runs the
// experiment behind each panel of Figure 8 on the message-counting simulator
// and prints the resulting series as aligned text tables (one row per x
// value, one column per plotted line). The live cluster's scenarios are
// audited by internal/p2p's TestScenarios, and its performance numbers come
// from `go run ./bench`.
//
// Usage:
//
//	batonsim                  # run every figure at the quick (seconds) scale
//	batonsim -figure 8d       # run a single figure
//	batonsim -full            # paper-scale parameters (1,000–10,000 peers)
//	batonsim -sizes 500,1000  # custom network sizes
//	batonsim -list            # list the reproducible figures
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"baton/internal/experiments"
)

func main() {
	err := run(os.Stdout, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "batonsim:", err)
		os.Exit(1)
	}
}

// run parses the command line and prints the experiment behind each
// requested panel of Figure 8 to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("batonsim", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "random seed")
		figure  = fs.String("figure", "", "figure to reproduce (8a..8i); empty means all")
		full    = fs.Bool("full", false, "use the paper-scale parameters (slow: tens of minutes)")
		list    = fs.Bool("list", false, "list reproducible figures and exit")
		sizes   = fs.String("sizes", "", "comma-separated network sizes overriding the defaults")
		queries = fs.Int("queries", 0, "queries per measurement (0 = default)")
		data    = fs.Int("data", 0, "data items per peer (0 = default)")
		runs    = fs.Int("runs", 0, "independent repetitions to average (0 = default)")
		verbose = fs.Bool("v", false, "print the notes recorded for each figure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.Figures() {
			fmt.Fprintln(w, id)
		}
		return nil
	}
	opt := experiments.Quick()
	if *full {
		opt = experiments.Default()
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		opt.Sizes = parsed
	}
	if *queries > 0 {
		opt.Queries = *queries
	}
	if *data > 0 {
		opt.DataPerNode = *data
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	opt.Seed = *seed

	ids := experiments.Figures()
	if *figure != "" {
		ids = []string{strings.TrimPrefix(strings.ToLower(*figure), "figure ")}
	}
	for _, id := range ids {
		result, err := experiments.Run(id, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure %s — %s\n", result.ID, result.Title)
		fmt.Fprintln(w, strings.Repeat("-", 72))
		fmt.Fprint(w, result.Table())
		if *verbose {
			for _, note := range result.Notes {
				fmt.Fprintf(w, "note: %s\n", note)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid network size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
