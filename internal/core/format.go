package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hypercube/internal/topology"
)

// Format renders the scheduled multicast as an indented tree with step
// annotations, in the style of the paper's figures:
//
//	0000
//	├─(1)→ 1110
//	│  └─(2)→ 1011
//	└─(1)→ 0101
func (s *Schedule) Format() string {
	t := s.Tree
	step := map[[2]topology.NodeID]int{}
	for _, u := range s.Unicasts {
		step[[2]topology.NodeID{u.From, u.To}] = u.Step
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s multicast from %s (%s, %d steps)\n",
		t.Algorithm, t.Cube.Binary(t.Source), s.Port, s.Steps())
	var rec func(node topology.NodeID, prefix string)
	rec = func(node topology.NodeID, prefix string) {
		ordered := slices.Clone(t.SendsFrom(node))
		sort.SliceStable(ordered, func(i, j int) bool {
			si := step[[2]topology.NodeID{node, ordered[i].To}]
			sj := step[[2]topology.NodeID{node, ordered[j].To}]
			if si != sj {
				return si < sj
			}
			return ordered[i].To < ordered[j].To
		})
		for i, snd := range ordered {
			branch, cont := "├─", "│  "
			if i == len(ordered)-1 {
				branch, cont = "└─", "   "
			}
			fmt.Fprintf(&b, "%s%s(%d)→ %s\n", prefix, branch,
				step[[2]topology.NodeID{node, snd.To}], t.Cube.Binary(snd.To))
			rec(snd.To, prefix+cont)
		}
	}
	b.WriteString(t.Cube.Binary(t.Source) + "\n")
	rec(t.Source, "")
	return b.String()
}
