package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval: a layer boundary crossed on behalf of a
// client op of one traced round. Start and End are offsets from the
// tracer's epoch. Parent is the ID of the enclosing span of the same op
// (0 for the op's root span).
type span struct {
	Round  int
	Op     opRef
	ID     int
	Parent int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (the union of their intervals,
// clipped to the parent). Spans are grouped by round and op; IDs are per
// op.
func selfTimes(spans []span) []time.Duration {
	type key struct {
		round int
		op    opRef
		id    int
	}
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Round, s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[key{s.Round, s.Op, s.ID}] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.End - s.Start - unionLen(ivs)
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanRow is one line of the per-layer span table.
type spanRow struct {
	Name       string
	Count      int
	MeanUS     float64
	MeanSelfUS float64
}

// spanTable aggregates spans by name: count, mean duration and mean self
// time, in first-seen order.
func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []spanRow
	var durs, selfs []time.Duration
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, spanRow{Name: s.Name})
			durs = append(durs, 0)
			selfs = append(selfs, 0)
		}
		rows[j].Count++
		durs[j] += s.End - s.Start
		selfs[j] += self[i]
	}
	for j := range rows {
		n := float64(rows[j].Count)
		rows[j].MeanUS = float64(durs[j]) / n / float64(time.Microsecond)
		rows[j].MeanSelfUS = float64(selfs[j]) / n / float64(time.Microsecond)
	}
	return rows
}

// writeSpans writes spans as JSON lines: name, start and end (µs from the
// tracer's epoch), span id, parent id, and the op (round/client.seq).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Op      string  `json:"op"`
			Name    string  `json:"name"`
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{
			Op:      fmt.Sprintf("r%d/c%d.%d", s.Round, s.Op.Client, s.Op.Seq),
			Name:    s.Name,
			ID:      s.ID,
			Parent:  s.Parent,
			StartUS: float64(s.Start) / float64(time.Microsecond),
			EndUS:   float64(s.End) / float64(time.Microsecond),
		}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
