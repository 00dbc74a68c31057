package store

// The free list and the space map persist as chains of fixed-entry-size
// pages linked through the header's next pointer. Both chains are rewritten
// from scratch at every commit (their old pages join the free set being
// published), so chain contents never mutate in place and the commit
// ordering guarantees hold for them like for any other page. Chain pages
// are allocated — from the reusable set first — before the free set is
// serialized, so the set cannot change mid-serialization.

// chainCap returns entries per chain page for the given entry size.
func (pg *pager) chainCap(entrySize int) int { return pg.payloadCap() / entrySize }

// chainPages returns how many chain pages n entries of entrySize need.
func (pg *pager) chainPages(entrySize, n int) int {
	per := pg.chainCap(entrySize)
	return (n + per - 1) / per
}

// allocChain picks a chain page number, from the reusable set when
// possible — pages free as of the previous durable commit are safe to
// overwrite, the surviving commit record lists them only as free — and by
// extending the file otherwise. Pending pages are never taken: the previous
// commit record still references their contents. Chain pages are never in
// the dirty set: the committer builds their images from the sealed state.
func (pg *pager) allocChain() uint32 {
	if n := len(pg.reusable); n > 0 {
		no := pg.reusable[n-1]
		pg.reusable = pg.reusable[:n-1]
		pg.cacheDrop(no)
		return no
	}
	no := pg.cur.pageCount
	pg.cur.pageCount++
	return no
}

// fillChain serializes n fixed-size entries into fresh pages of the given
// type at the pre-allocated numbers, linking them in order, calling fill
// once per entry in order. Surplus pages ride the chain tail empty — the
// pool is sized from an upper bound — and are retired with the rest of the
// chain at the next commit, so nothing leaks.
func (pg *pager) fillChain(nos []uint32, typ byte, entrySize, n int, fill func(dst []byte)) []*page {
	per := pg.chainCap(entrySize)
	pages := make([]*page, len(nos))
	for pi, no := range nos {
		p := newPage(no, pg.pageSize)
		p.setTyp(typ)
		count := min(max(n-pi*per, 0), per)
		p.setCount(count)
		pl := p.payload()
		for i := 0; i < count; i++ {
			fill(pl[i*entrySize : (i+1)*entrySize])
		}
		if pi > 0 {
			pages[pi-1].setNext(no)
		}
		pages[pi] = p
	}
	return pages
}

// readChain walks a chain from head, returning the concatenated entry
// bytes and the chain's page numbers.
func (pg *pager) readChain(head uint32, typ byte, entrySize int) ([]byte, []uint32, error) {
	var (
		raw   []byte
		pages []uint32
	)
	for no := head; no != 0; {
		p, err := pg.read(no, typ)
		if err != nil {
			return nil, nil, err
		}
		pages = append(pages, no)
		n := p.count() * entrySize
		if n > len(p.payload()) {
			return nil, nil, errCorrupt(no, "chain page entry count overflows the payload")
		}
		raw = append(raw, p.payload()[:n]...)
		no = p.next()
		if len(pages) > int(pg.cur.pageCount) {
			return nil, nil, errCorrupt(head, "chain cycle")
		}
	}
	return raw, pages, nil
}
