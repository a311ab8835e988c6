package stream

import (
	"odakit/internal/obs"
)

// Instrument registers the broker with an obs registry. The partition
// logs already count published/fetched records and bytes under the
// locks the data path holds anyway, so exposition is a pure scrape-time
// collector — the publish hot path gains zero instructions.
func (b *Broker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		for _, name := range b.Topics() {
			st, err := b.Stats(name)
			if err != nil {
				continue
			}
			l := obs.Labels("topic", name)
			emit(obs.Sample{Name: "oda_stream_published_records_total" + l, Kind: obs.KindCounter,
				Help: "Records ever published per topic.", Value: float64(st.TotalRecords)})
			emit(obs.Sample{Name: "oda_stream_published_bytes_total" + l, Kind: obs.KindCounter,
				Help: "Bytes ever published per topic.", Value: float64(st.TotalBytes)})
			emit(obs.Sample{Name: "oda_stream_fetched_records_total" + l, Kind: obs.KindCounter,
				Help: "Records ever served to consumers per topic.", Value: float64(st.FetchRecords)})
			emit(obs.Sample{Name: "oda_stream_retained_records" + l, Kind: obs.KindGauge,
				Help: "Records currently retained per topic.", Value: float64(st.Records)})
			emit(obs.Sample{Name: "oda_stream_retained_bytes" + l, Kind: obs.KindGauge,
				Help: "Bytes currently retained per topic.", Value: float64(st.Bytes)})
		}
	})
}
