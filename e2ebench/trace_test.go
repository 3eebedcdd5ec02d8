package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child inside", []span{{start: 120, end: 150}}, 70},
		{"disjoint children", []span{{start: 110, end: 120}, {start: 150, end: 180}}, 60},
		{"overlapping children count once", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"nested children count once", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"children clipped to the parent", []span{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
		{"child outside the parent", []span{{start: 10, end: 90}}, 100},
		{"child covering the parent", []span{{start: 0, end: 500}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanIndexAndFile(t *testing.T) {
	tr := newTracer()
	root := tr.newID()
	tr.record(spHandler, 7, root, 120, 170)
	tr.add(span{id: root, parent: -1, req: 7, name: spClient, start: 100, end: 200})
	tr.record(spDecode, 8, -1, 300, 310)

	ix := tr.index()
	if got := ix.selfTimes(spClient); len(got) != 1 || got[0] != 50 {
		t.Errorf("client self times = %v, want [50]", got)
	}
	if got := ix.durations(spDecode); len(got) != 1 || got[0] != 10 {
		t.Errorf("decode durations = %v, want [10]", got)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := ix.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID, Parent, Req int32
			Name            string
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		names = append(names, s.Name)
	}
	want := []string{"http.client", "serve.handler", "serve.decode"}
	if len(names) != len(want) {
		t.Fatalf("span file names = %v, want %v (start order)", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("span file names = %v, want %v (start order)", names, want)
		}
	}
}
