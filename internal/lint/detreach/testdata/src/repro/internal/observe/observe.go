// Package observe shares a name prefix with internal/obs but is not that
// layer: strict layers are matched by whole path elements, so an
// order-free map fold here stays silent.
package observe

func Total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
