package circom

// IncludeCacheFiles returns a snapshot of the include-parse cache, keyed by
// source text, for the external cache tests.
func IncludeCacheFiles() map[string]*File {
	includeCache.Lock()
	defer includeCache.Unlock()
	out := make(map[string]*File, len(includeCache.files))
	for text, f := range includeCache.files {
		out[text] = f
	}
	return out
}
