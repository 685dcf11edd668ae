package noc

// MMSGraph returns a 16-core multimedia system core graph in the style of
// the video/audio application used by Hu & Marculescu: an MPEG video
// decode pipeline, an audio codec pipeline and shared memory/IO cores,
// with bandwidth annotations in MB/s. Volumes are bandwidth-proportional
// (steady streaming over the same interval).
//
// Cores:
//
//	0 in-stream DMA    1 demux          2 vld            3 inv-quant
//	4 idct             5 motion-comp    6 frame-mem      7 display
//	8 audio-dsp        9 audio-mem     10 audio-dac     11 cpu
//	12 sdram-ctrl     13 sram-ctrl     14 rast          15 io
func MMSGraph() *Graph {
	edge := func(s, d int, bw float64) Flow {
		return Flow{Src: s, Dst: d, Volume: bw * 1e3, BW: bw}
	}
	return &Graph{
		N: 16,
		Flows: []Flow{
			// Video pipeline.
			edge(0, 1, 70),
			edge(1, 2, 362),
			edge(2, 3, 362),
			edge(3, 4, 362),
			edge(4, 5, 357),
			edge(5, 6, 353),
			edge(6, 7, 300),
			edge(5, 12, 500), // motion comp <-> SDRAM reference frames
			edge(12, 5, 250),
			edge(6, 12, 94),
			// Audio pipeline.
			edge(1, 8, 49),
			edge(8, 9, 27),
			edge(9, 8, 27),
			edge(8, 10, 25),
			// Control and IO.
			edge(11, 1, 25),
			edge(11, 12, 100),
			edge(13, 11, 125),
			edge(11, 13, 125),
			edge(14, 12, 150),
			edge(7, 14, 180),
			edge(15, 0, 70),
			edge(11, 15, 30),
		},
	}
}
