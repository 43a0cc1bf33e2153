// Halo: a LULESH-style 3D nearest-neighbour halo exchange across a
// 2×2×2 grid of simulated GPUs under the "no source wildcard"
// relaxation — receives name their neighbours explicitly, so the
// runtime matches with the rank-partitioned engine (§VI-A) and the
// aggregate matching rate rises accordingly.
//
// The exchange pattern is identical every iteration, so the channels
// are persistent (MPI_Send_init/Recv_init): the first iteration runs
// the full matching engine and seals each (src, dst, tag) pairing into
// the match-handle cache; every later iteration re-fires in O(1) with
// the engine never invoked (DESIGN.md §15).
package main

import (
	"fmt"
	"log"

	"simtmp"
)

const (
	nx, ny, nz = 2, 2, 2
	gpus       = nx * ny * nz
	iterations = 4
	// One tag per halo direction, reused every iteration (the BSP
	// pattern the paper's discussion endorses).
	faces = 6
)

func rankOf(x, y, z int) int {
	return ((z+nz)%nz*ny+(y+ny)%ny)*nx + (x+nx)%nx
}

func coords(r int) (int, int, int) { return r % nx, (r / nx) % ny, r / (nx * ny) }

// neighbours returns the six face neighbours of rank r with the tag
// identifying the direction.
func neighbours(r int) [faces]int {
	x, y, z := coords(r)
	return [faces]int{
		rankOf(x+1, y, z), rankOf(x-1, y, z),
		rankOf(x, y+1, z), rankOf(x, y-1, z),
		rankOf(x, y, z+1), rankOf(x, y, z-1),
	}
}

// opposite maps a direction to the direction the peer sends back on.
func opposite(d int) int { return d ^ 1 }

func main() {
	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{
		Level:  simtmp.NoSourceWildcard,
		Arch:   simtmp.PascalGTX1080(),
		GPUs:   gpus,
		Queues: faces,
	})

	// Each GPU holds a scalar field value; every iteration it averages
	// in the halo values received from its six face neighbours — a
	// miniature diffusion stencil.
	field := make([]float64, gpus)
	for r := range field {
		field[r] = float64(r)
	}

	// Build the persistent channels once: one send and one receive per
	// (rank, direction). Matching happens on the first Start; later
	// iterations re-fire through the sealed cache.
	sends := make([][faces]*simtmp.SendChannel, gpus)
	recvs := make([][faces]*simtmp.RecvChannel, gpus)
	for r := 0; r < gpus; r++ {
		for d, peer := range neighbours(r) {
			s, err := rt.SendInit(r, peer, simtmp.Tag(d), 0, nil)
			if err != nil {
				log.Fatal(err)
			}
			sends[r][d] = s
			h, err := rt.RecvInit(r, simtmp.Rank(peer), simtmp.Tag(opposite(d)), 0)
			if err != nil {
				log.Fatal(err)
			}
			recvs[r][d] = h
		}
	}

	for iter := 0; iter < iterations; iter++ {
		// Re-arm all receives first (the pre-posting optimization LULESH
		// itself ships with, per §VII-B), then bind this iteration's
		// field values and fire.
		for r := 0; r < gpus; r++ {
			for d := 0; d < faces; d++ {
				if err := recvs[r][d].Start(); err != nil {
					log.Fatal(err)
				}
			}
		}
		for r := 0; r < gpus; r++ {
			payload := []byte(fmt.Sprintf("%g", field[r]))
			for d := 0; d < faces; d++ {
				if err := sends[r][d].Bind(payload); err != nil {
					log.Fatal(err)
				}
				if err := sends[r][d].Start(); err != nil {
					log.Fatal(err)
				}
			}
		}
		if ok, err := rt.Drain(8); err != nil {
			log.Fatal(err)
		} else if !ok {
			log.Fatal("halo exchange did not complete")
		}

		next := make([]float64, gpus)
		for r := 0; r < gpus; r++ {
			sum := field[r]
			for d := 0; d < faces; d++ {
				msg, err := recvs[r][d].Message()
				if err != nil {
					log.Fatalf("rank %d dir %d: %v", r, d, err)
				}
				var v float64
				fmt.Sscanf(string(msg.Payload), "%g", &v)
				sum += v
			}
			next[r] = sum / (faces + 1)
		}
		field = next
		fmt.Printf("iteration %d: field = %.3v\n", iter, field)
	}

	st := rt.Stats()
	fmt.Printf("\nengine: %s\n", rt.EngineName())
	fmt.Printf("%d halo messages matched in %.2f simulated µs → %.2fM matches/s\n",
		st.Matches, st.SimSeconds*1e6, st.Rate()/1e6)
	fmt.Printf("persistent cache: %d seals, %d cached re-fires, %d engine matches (hit rate %.1f%%)\n",
		st.CacheSeals, st.CacheHits, st.CacheMisses,
		100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
}
