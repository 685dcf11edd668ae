package lib

import "testing"

func TestLib(t *testing.T) {
	Debug = true
	c := NewCounter()
	c.Add(OnlyTests())
	Decode(c, 2)
	c.Reset()
	if c.N != 0 || helper() != 6 {
		t.Fatal(c)
	}
}
