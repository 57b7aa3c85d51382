package sunmap

import (
	"sync"
	"testing"

	"sunmap/internal/graph"
)

// TestBuiltinAppResolvedOnce checks that requests naming a built-in app
// share one graph per name, even when they resolve it at once, while
// AppByName hands every caller a fresh graph it may mutate.
func TestBuiltinAppResolvedOnce(t *testing.T) {
	for _, name := range AppNames() {
		got := make([]*graph.CoreGraph, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := AppSpec{Name: name}.resolve()
				if err != nil {
					t.Error(err)
				}
				got[i] = g
			}()
		}
		wg.Wait()
		a := got[0]
		for _, b := range got[1:] {
			if a == nil || a != b {
				t.Fatalf("%s: concurrent resolves built more than one graph", name)
			}
		}
		if b, err := (AppSpec{Name: name}).resolve(); err != nil || a != b {
			t.Errorf("%s: a later resolve built a new graph (err %v)", name, err)
		}
		c, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c == d || c == a {
			t.Errorf("%s: AppByName returned a shared graph", name)
		}
	}
	if _, err := (AppSpec{Name: "no-such-app"}).resolve(); err == nil {
		t.Error("unknown app resolved")
	}
}
