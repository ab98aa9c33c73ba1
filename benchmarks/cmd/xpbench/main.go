// Command xpbench is the repository's benchmark: one workload per
// invocation, inputs generated from the seed in-process, every metric
// printed by name, the result as one JSON object on the last line.
//
//	xpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	xpbench compare a.jsonl b.jsonl
//	xpbench schema > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/benchmarks/suite"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: xpbench compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		if err := suite.Compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "xpbench:", err)
			os.Exit(1)
		}
		return
	}

	if len(os.Args) == 2 && os.Args[1] == "schema" {
		if err := suite.WriteSchema(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "xpbench:", err)
			os.Exit(1)
		}
		return
	}

	var cfg suite.Config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", float64(suite.RunSeconds), "measuring budget of the round loop")
	flag.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	flag.Float64Var(&cfg.Scale, "scale", 1, "shrink the workload (tests); 1 is the committed size")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	cfg.Log = os.Stdout
	if cfg.Trace {
		// The span file goes beside the build outputs, inside the checkout.
		cfg.TraceOut = filepath.Join(".bench_build", "trace-"+cfg.Workload+".json")
		if err := os.MkdirAll(filepath.Dir(cfg.TraceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "xpbench:", err)
			os.Exit(1)
		}
	}

	res, err := suite.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
