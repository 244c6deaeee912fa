package plist

import "testing"

func TestMemCursor(t *testing.T) {
	entries := []Entry{entry(1, 0.9), entry(2, 0.5)}
	c := NewMemCursor(entries)
	if c.Len() != 2 || c.Pos() != 0 {
		t.Fatal("fresh MemCursor shape wrong")
	}
	e, ok := c.Next()
	if !ok || e != entries[0] {
		t.Fatalf("Next = %v, %v", e, ok)
	}
	e, ok = c.Next()
	if !ok || e != entries[1] {
		t.Fatalf("Next = %v, %v", e, ok)
	}
	if _, ok := c.Next(); ok {
		t.Fatal("Next past end returned ok")
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
}
