// Test files outside the strict layers are not policed for map folds
// either.
package observe

func countKeys(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
