package obs

// AppendWindow appends v to s and keeps only the newest window entries, in
// arrival order — the bounded logs behind the daemons' history and
// ?since= delta endpoints. Once full, each append copies the kept window
// to the front of the backing array and clears the vacated slot, so no
// dropped entry stays reachable through it, and the array never grows
// past window+1 entries. Not safe for concurrent use; readers must hold
// the same lock as the appender, since entries move in place.
func AppendWindow[T any](s []T, v T, window int) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), min(max(2*len(s), 8), window+1))
		copy(grown, s)
		s = grown
	}
	s = append(s, v)
	if len(s) > window {
		n := copy(s, s[len(s)-window:])
		clear(s[n:])
		s = s[:n]
	}
	return s
}
