package distrib

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/mis/colevishkin"
	"repro/internal/mis/degreduce"
	"repro/internal/mis/ftmetivier"
	"repro/internal/mis/ghaffari"
	"repro/internal/mis/localmin"
	"repro/internal/mis/luby"
	"repro/internal/mis/metivier"
)

// Program names the node program a distributed run executes, in a form
// that crosses process boundaries: an algorithm name from the registry
// below plus its numeric arguments. Every worker constructs its factory
// from the Program the fleet sends it, so all shards run the same state
// machines, and an in-process run built from the same Program is the
// distributed run's sequential reference.
type Program struct {
	// Algorithm is a registry name (see Algorithms).
	Algorithm string
	// Args parameterizes the factory. Most algorithms take none;
	// degreduce takes [iterations], ftmetivier takes [maxIters] (0 =
	// default budget), and colevishkin takes the n parent IDs of a BFS
	// forest, encoded as uint64(int64(parent)) with -1 for roots.
	Args []uint64
}

// factories maps algorithm names to factory constructors. n is the
// vertex count of the run's graph. The tree-MIS program is deliberately
// absent: it needs whole-graph forest preprocessing that does not
// decompose into per-shard configuration.
var factories = map[string]func(prog Program, n int) (func(v int) congest.Node, error){
	"metivier": func(_ Program, _ int) (func(v int) congest.Node, error) {
		return metivier.New(), nil
	},
	"ftmetivier": func(p Program, _ int) (func(v int) congest.Node, error) {
		iters := 0
		if len(p.Args) > 0 {
			iters = int(int64(p.Args[0]))
		}
		return ftmetivier.New(iters), nil
	},
	"luby-a": func(_ Program, n int) (func(v int) congest.Node, error) {
		return luby.NewA(n), nil
	},
	"luby-b": func(_ Program, _ int) (func(v int) congest.Node, error) {
		return luby.NewB(), nil
	},
	"ghaffari": func(_ Program, _ int) (func(v int) congest.Node, error) {
		return ghaffari.New(), nil
	},
	"localmin": func(_ Program, _ int) (func(v int) congest.Node, error) {
		return localmin.New(), nil
	},
	"degreduce": func(p Program, _ int) (func(v int) congest.Node, error) {
		iters := 4
		if len(p.Args) > 0 {
			iters = int(int64(p.Args[0]))
		}
		if iters < 1 {
			return nil, fmt.Errorf("distrib: degreduce needs a positive iteration count, got %d", iters)
		}
		return degreduce.New(iters), nil
	},
	"colevishkin": func(p Program, n int) (func(v int) congest.Node, error) {
		if len(p.Args) != n {
			return nil, fmt.Errorf("distrib: colevishkin needs %d parent args, got %d", n, len(p.Args))
		}
		parent := make([]int, n)
		for v := range parent {
			parent[v] = int(int64(p.Args[v]))
		}
		return colevishkin.New(parent, n), nil
	},
}

// Algorithms lists the registry's algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Factory resolves a Program to the node factory the shard workers
// construct; an in-process run of the same Program uses it too.
func Factory(prog Program, n int) (func(v int) congest.Node, error) {
	ctor, ok := factories[prog.Algorithm]
	if !ok {
		return nil, fmt.Errorf("distrib: unknown algorithm %q (have %v)", prog.Algorithm, Algorithms())
	}
	return ctor(prog, n)
}

// ColeVishkinArgs packs a BFS parent forest into Program args.
func ColeVishkinArgs(parent []int) []uint64 {
	args := make([]uint64, len(parent))
	for v, p := range parent {
		args[v] = uint64(int64(p))
	}
	return args
}
