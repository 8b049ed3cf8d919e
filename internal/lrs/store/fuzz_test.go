package store

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadSnapshot guards the restart path against corrupted or hostile
// snapshot files: load must reject or succeed cleanly, never panic, and a
// successful load must produce a usable store.
func FuzzLoadSnapshot(f *testing.F) {
	s := New()
	c := s.Collection("events")
	c.EnsureIndex("user")
	c.Insert(map[string]string{"user": "u", "item": "i"})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1,"collections":[]}`)
	f.Add(`{"version":1,"collections":[{"name":"x","docs":[{"id":"x/1"}]}]}`)
	f.Add(`{"version":1,"collections":[{"name":"x","indexes":["u"],"docs":[{"id":"x/1","fields":{"u":"a"}},{"id":"x/1","fields":{"u":"a"}}]}]}`)
	f.Add(`{`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, data string) {
		restored, err := LoadSnapshot(strings.NewReader(data))
		if err != nil {
			return
		}
		// A successful load must yield a store that survives use.
		for _, name := range restored.Names() {
			col := restored.Collection(name)
			col.Count()
			col.Insert(map[string]string{"probe": "1"})
			col.Scan(func(Document) bool { return true })
		}
	})
}
