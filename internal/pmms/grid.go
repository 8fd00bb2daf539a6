package pmms

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
)

// Grid is the cache-architecture lab's configuration builder: the cross
// product of replacement policies, capacities and associativities (one
// write policy, block size, victim-buffer size and random seed per
// grid). It feeds the Sweeper, so a whole grid costs one pass over the
// access stream.
type Grid struct {
	Capacities   []int // words
	Assocs       []int // ways per set
	Replacements []cache.Replacement
	Policy       cache.Policy
	BlockWords   int // 0 = the PSI's 4
	Victims      int // victim-buffer entries on every lane (0 = none)
	Seed         uint64
}

// DefaultGrid sweeps the policies of the lab at three capacities and
// three associativities around the machine's design point (8K words,
// 2 ways, LRU is lane "lru/8192w/2-set" — cache.PSI itself).
func DefaultGrid() Grid {
	return Grid{
		Capacities: []int{1024, 4096, 8192},
		Assocs:     []int{1, 2, 4},
		Replacements: []cache.Replacement{
			cache.ReplaceLRU, cache.ReplaceFIFO, cache.ReplaceRandom, cache.ReplacePLRU,
		},
	}
}

// Configs expands the grid in deterministic report order —
// replacement-major, then capacity, then associativity. Combinations
// the geometry cannot realize (cache.Config.Validate rejects them, e.g.
// PLRU at a non-power-of-two way count) are skipped.
func (g Grid) Configs() []cache.Config {
	block := g.BlockWords
	if block == 0 {
		block = 4
	}
	var out []cache.Config
	for _, r := range g.Replacements {
		for _, w := range g.Capacities {
			for _, a := range g.Assocs {
				cfg := cache.Config{
					Words: w, Assoc: a, BlockWords: block, Policy: g.Policy,
					Replacement: r, Victims: g.Victims, Seed: g.Seed,
				}
				if cfg.Validate() != nil {
					continue
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// LegacyLanes is the fixed 14-lane Figure 1 plan the Sweeper carried
// before the grid existed: the 11-capacity sweep, the machine's
// configuration and the one-set / store-through ablations, in that
// order. Figure 1 taps the window-1 run with exactly these lanes, and
// the differential suite replays them.
func LegacyLanes() []cache.Config {
	var cfgs []cache.Config
	for _, w := range DefaultSizes() {
		cfgs = append(cfgs, SweepConfig(w))
	}
	return append(cfgs, cache.PSI, OneSetConfig, StoreThroughConfig)
}

// ParseGrid builds a Grid from a CLI spec: semicolon-separated
// key=value axes, e.g.
//
//	caps=1024,4096,8192;assoc=1,2,4;repl=lru,fifo,random,plru
//
// with optional policy=store-in|store-through, block=N, victims=N and
// seed=N. Omitted axes take the DefaultGrid value; the empty string and
// "default" give DefaultGrid itself.
func ParseGrid(spec string) (Grid, error) {
	g := DefaultGrid()
	if spec == "" || spec == "default" {
		return g, nil
	}
	for _, part := range strings.Split(spec, ";") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Grid{}, fmt.Errorf("grid: %q is not key=value", part)
		}
		switch key {
		case "caps":
			ints, err := parseInts(val)
			if err != nil {
				return Grid{}, fmt.Errorf("grid caps: %w", err)
			}
			g.Capacities = ints
		case "assoc":
			ints, err := parseInts(val)
			if err != nil {
				return Grid{}, fmt.Errorf("grid assoc: %w", err)
			}
			g.Assocs = ints
		case "repl":
			var rs []cache.Replacement
			for _, name := range strings.Split(val, ",") {
				r, err := cache.ParseReplacement(name)
				if err != nil {
					return Grid{}, err
				}
				rs = append(rs, r)
			}
			g.Replacements = rs
		case "policy":
			switch val {
			case "store-in":
				g.Policy = cache.StoreIn
			case "store-through":
				g.Policy = cache.StoreThrough
			default:
				return Grid{}, fmt.Errorf("grid policy: %q (want store-in or store-through)", val)
			}
		case "block":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Grid{}, fmt.Errorf("grid block: %w", err)
			}
			g.BlockWords = n
		case "victims":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Grid{}, fmt.Errorf("grid victims: %w", err)
			}
			g.Victims = n
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Grid{}, fmt.Errorf("grid seed: %w", err)
			}
			g.Seed = n
		default:
			return Grid{}, fmt.Errorf("grid: unknown axis %q", key)
		}
	}
	if len(g.Configs()) == 0 {
		return Grid{}, fmt.Errorf("grid: no valid configuration in %q", spec)
	}
	return g, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
