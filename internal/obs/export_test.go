package obs

// Overflowed reports label-value combinations collapsed into the
// overflow series.
func (cv *CounterVec) Overflowed() int64 {
	if cv == nil {
		return 0
	}
	return cv.overflowed.Load()
}

// Sum returns the total over every series of the vector.
func (cv *CounterVec) Sum() int64 {
	if cv == nil {
		return 0
	}
	var total int64
	for _, s := range (*labelVec)(cv).sortedSeries() {
		total += s.c.Value()
	}
	return total
}

// Overflowed reports label-value combinations collapsed into the
// overflow series.
func (hv *HistogramVec) Overflowed() int64 {
	if hv == nil {
		return 0
	}
	return hv.overflowed.Load()
}
