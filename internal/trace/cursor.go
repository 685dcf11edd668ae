package trace

// Cursor is a forward, zero-allocation iterator over an access stream.
// It is the contract the one streaming replay, cache.ReplayCursor,
// consumes: a cursor yields one access at a time from a reused buffer,
// so a million-access binary trace can be replayed without ever
// materialising a []Access. Every other model takes a *Trace.
//
// The canonical loop is
//
//	for cur.Next() {
//		a := cur.Access()
//		...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// The *Access returned by Access is only valid until the next call to
// Next: implementations overwrite it in place. Callers that need to
// retain an access must copy the value.
type Cursor interface {
	// Next advances to the next access. It returns false when the
	// stream is exhausted or a decode error occurred; the two cases are
	// distinguished by Err.
	Next() bool
	// Access returns the current access. It must only be called after a
	// Next that returned true, and the pointee is overwritten by the
	// following Next.
	Access() *Access
	// Err returns the first error encountered, or nil on clean
	// exhaustion.
	Err() error
}

// SliceCursor iterates an in-memory trace. It adapts *Trace to the
// Cursor contract so Cache.Replay and the streaming reader share one
// replay loop, cache.ReplayCursor.
type SliceCursor struct {
	accesses []Access
	i        int
}

// Cursor returns a cursor over the trace's accesses.
func (t *Trace) Cursor() *SliceCursor { return &SliceCursor{accesses: t.Accesses, i: -1} }

// Next advances the cursor.
func (c *SliceCursor) Next() bool {
	if c.i+1 >= len(c.accesses) {
		return false
	}
	c.i++
	return true
}

// Access returns the current access.
func (c *SliceCursor) Access() *Access { return &c.accesses[c.i] }

// Err always returns nil: an in-memory slice cannot fail mid-iteration.
func (c *SliceCursor) Err() error { return nil }
