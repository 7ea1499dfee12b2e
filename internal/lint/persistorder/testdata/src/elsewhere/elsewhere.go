// Package elsewhere is outside the persistorder policy table: Commit-named
// methods here (database transactions, say) are not the EP-cut protocol.
package elsewhere

type tx struct{}

func (t *tx) Commit() {}

func Use(t *tx) {
	t.Commit() // no flush needed: out of scope
}
