package pylang

// SampleSource exports the realistic sample module to the external tests.
const SampleSource = sampleSource

// CachedChunks reports how many of src's top-level chunks f's statement
// cache holds, and how many chunks src has, without parsing or touching
// the cache. It returns zeros when src does not lex.
func CachedChunks(f *Factory, src string) (cached, total int) {
	toks, err := Lex(src)
	if err != nil {
		return 0, 0
	}
	p := &parser{src: src, toks: toks, line: 1}
	starts := chunkStarts(toks)
	for k := 0; k+1 < len(starts); k++ {
		key := p.chunkKey(starts[k], starts[k+1])
		_, inCur := f.stmts.cur[key]
		_, inOld := f.stmts.old[key]
		if inCur || inOld {
			cached++
		}
	}
	return cached, len(starts) - 1
}
