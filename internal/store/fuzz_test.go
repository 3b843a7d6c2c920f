package store

import (
	"bytes"
	"testing"

	"dnastore/internal/durable"
)

// FuzzLoadPool hardens the pool loader LoadFile runs — the legacy JSON
// path, the container path and its kind check — against arbitrary bytes:
// forged snapshots, invalid strands, duplicate keys, mutated containers and
// containers of another kind must error cleanly, never panic.
func FuzzLoadPool(f *testing.F) {
	f.Add([]byte(`{"version":1,"options":{},"objects":[]}`))
	f.Add([]byte(`{"version":1,"options":{"payload_bytes":8},"objects":[{"key":"a","primer":"ACGT","strands":["AACC"]}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"","primer":""}]}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"a","primer":"XYZ!"}]}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"a"},{"key":"a"}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	// A valid pool as a bare snapshot and as a container, a truncated
	// header, and the same snapshot in a container of the wrong kind.
	p := New(Options{Seed: 1})
	p.Store("k", []byte("fuzz seed payload"))
	var snap bytes.Buffer
	if err := p.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(container(f, durable.KindPool, snap.Bytes()))
	f.Add([]byte("DNAC\x01\x01\x10\x00"))
	f.Add(container(f, durable.KindProfile, snap.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := loadPool(bytes.NewReader(data))
		if err == nil && p == nil {
			t.Error("nil pool without error")
		}
		if p != nil {
			// Accepted pools must be internally consistent.
			for _, k := range p.Keys() {
				if k == "" {
					t.Error("accepted pool with empty key")
				}
			}
			_ = p.NumStrands()
		}
	})
}

// container wraps a pool snapshot in a durable container of the given kind.
func container(f *testing.F, kind durable.Kind, snapshot []byte) []byte {
	var buf bytes.Buffer
	w, err := durable.NewWriter(&buf, kind, durable.Options{Parity: durable.DefaultParity})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteFrame(poolFrame, snapshot); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
