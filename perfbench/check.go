package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/cdcs"
	"repro/internal/workloads"
)

// goldenPath holds the frozen optimum of every paper instance: cost,
// point-to-point cost and the merged channel sets. The paper and
// serve-paper workloads check every result against it.
const goldenPath = "internal/synth/testdata/golden.json"

// golden is one expected optimum.
type golden struct {
	Name       string     `json:"name"`
	Cost       float64    `json:"cost"`
	P2PCost    float64    `json:"p2pCost"`
	MergedSets [][]string `json:"mergedSets"`
}

// instance is one named paper instance with its expected optimum.
type instance struct {
	name string
	cg   *cdcs.ConstraintGraph
	lib  *cdcs.Library
	want golden
}

// paperInstances builds the four paper instances and pairs each with
// its golden optimum. With corrupt set, every expected cost is moved
// by 1%, which every check must then reject.
func paperInstances(corrupt bool) (map[string]*instance, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var gs []golden
	if err := json.Unmarshal(data, &gs); err != nil {
		return nil, fmt.Errorf("decode %s: %w", goldenPath, err)
	}
	out := map[string]*instance{
		"wan": {name: "wan", cg: workloads.WAN(), lib: workloads.WANLibrary()},
		"lan": {name: "lan", cg: workloads.LAN(), lib: workloads.LANLibrary()},
		"mcm": {name: "mcm", cg: workloads.MCM(), lib: workloads.MCMLibrary()},
		"noc": {name: "noc", cg: workloads.NoC(), lib: workloads.NoCLibrary()},
	}
	for _, g := range gs {
		if in, ok := out[g.Name]; ok {
			in.want = g
			if corrupt {
				in.want.Cost *= 1.01
			}
		}
	}
	for name, in := range out {
		if in.want.Name == "" {
			return nil, fmt.Errorf("%s has no entry for %q", goldenPath, name)
		}
	}
	return out, nil
}

// costEq compares costs with a relative tolerance that only absorbs
// floating-point noise.
func costEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkOptimum compares a result with the golden optimum.
func checkOptimum(want golden, cost, p2pCost float64, merged [][]string) error {
	if !costEq(cost, want.Cost) {
		return fmt.Errorf("%s: cost %.9g, want %.9g", want.Name, cost, want.Cost)
	}
	if !costEq(p2pCost, want.P2PCost) {
		return fmt.Errorf("%s: point-to-point cost %.9g, want %.9g", want.Name, p2pCost, want.P2PCost)
	}
	if got, exp := setsKey(merged), setsKey(want.MergedSets); got != exp {
		return fmt.Errorf("%s: merged sets %s, want %s", want.Name, got, exp)
	}
	return nil
}

// setsKey renders channel sets order-independently.
func setsKey(sets [][]string) string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		c := append([]string(nil), s...)
		sort.Strings(c)
		keys[i] = strings.Join(c, ",")
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, "} {") + "}"
}

// reportMerged lists the channel names of every selected merging.
func reportMerged(cg *cdcs.ConstraintGraph, rep *cdcs.Report) [][]string {
	var out [][]string
	for _, c := range rep.SelectedCandidates() {
		if c.Kind != "merge" {
			continue
		}
		var names []string
		for _, ch := range c.Channels {
			names = append(names, cg.Channel(ch).Name)
		}
		out = append(out, names)
	}
	return out
}

// implGraph is the part of an implementation graph's JSON export the
// merged-set check reads: which links implement each channel.
type implGraph struct {
	Channels []struct {
		Channel string  `json:"channel"`
		Paths   [][]int `json:"paths"`
	} `json:"channels"`
}

// graphMerged recovers the merged channel sets from an exported
// implementation graph: channels whose paths share a link were merged
// onto one trunk. Singletons are point-to-point and omitted.
func graphMerged(data []byte) ([][]string, error) {
	var g implGraph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decode implementation graph: %w", err)
	}
	parent := make([]int, len(g.Channels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := map[int]int{}
	for i, ch := range g.Channels {
		for _, p := range ch.Paths {
			for _, link := range p {
				if j, ok := owner[link]; ok {
					parent[find(i)] = find(j)
				} else {
					owner[link] = i
				}
			}
		}
	}
	groups := map[int][]string{}
	for i, ch := range g.Channels {
		root := find(i)
		groups[root] = append(groups[root], ch.Channel)
	}
	var out [][]string
	for i := range g.Channels {
		if gr := groups[i]; len(gr) > 1 {
			out = append(out, gr)
		}
	}
	return out, nil
}
