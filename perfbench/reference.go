package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"squall/internal/types"
)

// pair identifies one 2-way join result by the ts column of each side.
type pair [2]int64

// bag is a multiset of join results.
type bag map[pair]int

// bagDiff counts the rows by which got differs from want: wrong or extra
// rows, missing rows and duplicates each count once per copy.
func bagDiff(got, want bag) int64 {
	var d int64
	for k, n := range want {
		d += int64(absInt(got[k] - n))
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			d += int64(n)
		}
	}
	return d
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sumsRelTol is the relative tolerance for float sums, which the engine
// adds in a different order than the reference.
const sumsRelTol = 1e-9

// groupDiff counts the groups by which got differs from want: a missing or
// extra group, or a sum off by more than sumsRelTol.
func groupDiff(got, want map[int64]float64) int64 {
	var d int64
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Abs(g-w) > sumsRelTol*math.Max(math.Abs(w), 1) {
			d++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			d++
		}
	}
	return d
}

// hashJoin is the plain map-based 2-way equi-join reference: every pair
// (r, s) with r[rKey] == s[sKey] and keep(r), identified by their ts
// columns.
func hashJoin(r, s []types.Tuple, rKey, sKey, ts int, keep func(types.Tuple) bool) bag {
	byKey := map[int64][]int64{}
	for _, t := range r {
		if keep == nil || keep(t) {
			byKey[t[rKey].I] = append(byKey[t[rKey].I], t[ts].I)
		}
	}
	out := bag{}
	for _, t := range s {
		for _, rts := range byKey[t[sKey].I] {
			out[pair{rts, t[ts].I}]++
		}
	}
	return out
}

// pairKey packs a pair whose ts columns both fit in 32 bits into one
// sortable key, so large result sets are checked by sorting instead of by
// hashing every row.
func pairKey(p pair) uint64 { return uint64(p[0])<<32 | uint64(uint32(p[1])) }

// sortedKeys lists b's rows as sorted pair keys, one per copy.
func sortedKeys(b bag) []uint64 {
	ks := make([]uint64, 0, bagSize(b))
	for p, n := range b {
		for ; n > 0; n-- {
			ks = append(ks, pairKey(p))
		}
	}
	slices.Sort(ks)
	return ks
}

// keysDiff counts the rows by which the sorted multisets got and want
// differ, as bagDiff does: each missing, extra or wrong row counts once
// per copy.
func keysDiff(got, want []uint64) int64 {
	var d int64
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i] == want[j]:
			i++
			j++
		case got[i] < want[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + int64(len(got)-i) + int64(len(want)-j)
}

// bagSize is the number of rows in b.
func bagSize(b bag) int64 {
	var n int64
	for _, c := range b {
		n += int64(c)
	}
	return n
}

// describeDiff names a few differing pairs for the failure report.
func describeDiff(got, want bag) string {
	var ks []pair
	for k, n := range want {
		if got[k] != n {
			ks = append(ks, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i][0] < ks[j][0] || ks[i][0] == ks[j][0] && ks[i][1] < ks[j][1] })
	if len(ks) > 3 {
		ks = ks[:3]
	}
	s := ""
	for _, k := range ks {
		s += fmt.Sprintf(" %v got %d want %d;", k, got[k], want[k])
	}
	return s
}
