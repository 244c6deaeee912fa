package corpus

// Helpers bridging the error-returning decode API for tests. The corpora
// under test are heap-resident, so a decode error means the test setup
// itself is broken; panicking keeps call sites as terse as the old
// panic-on-corruption API.

func mustAdd(c *Corpus, d Document) DocID {
	id, err := c.Add(d)
	if err != nil {
		panic(err)
	}
	return id
}

func mustInverted(c *Corpus) *Inverted {
	ix, err := BuildInverted(c)
	if err != nil {
		panic(err)
	}
	return ix
}

func mustDocs(ix *Inverted, feature string) []DocID {
	docs, err := ix.Docs(feature)
	if err != nil {
		panic(err)
	}
	return docs
}

func mustSlice(c *Corpus, lo, hi int) *Corpus {
	s, err := c.Slice(lo, hi)
	if err != nil {
		panic(err)
	}
	return s
}

func mustCorpusBytes(c *Corpus) []byte {
	data, err := c.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	return data
}
