package stress

import (
	"os"
	"sort"
	"strings"
)

// Native kernels: real Go implementations of each stressor so the battery
// also measures genuine machine behaviour. Each returns a checksum so the
// compiler cannot eliminate the work.

func nativeALU(n int) float64 {
	var acc uint64 = 0x9e3779b9
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
		acc ^= acc >> 17
	}
	return float64(acc % 1000)
}

func nativeFib(n int) float64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return float64(a % 1000)
}

func nativePrimes(n int) float64 {
	count := 0
	candidate := 3
	for i := 0; i < n; i++ {
		prime := true
		for d := 3; d*d <= candidate; d += 2 {
			if candidate%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			count++
		}
		candidate += 2
	}
	return float64(count)
}

func nativeGCD(n int) float64 {
	var acc uint64
	a, b := uint64(1234567891), uint64(987654321)
	for i := 0; i < n; i++ {
		x, y := a+uint64(i), b
		for y != 0 {
			x, y = y, x%y
		}
		acc += x
	}
	return float64(acc % 1000)
}

func nativeCRC(n int) float64 {
	const poly = 0xEDB88320
	var crc uint32 = 0xFFFFFFFF
	for i := 0; i < n; i++ {
		crc ^= uint32(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return float64(crc % 1000)
}

func nativeBitops(n int) float64 {
	var acc uint64 = 0xDEADBEEF
	for i := 0; i < n; i++ {
		acc = (acc << 13) | (acc >> 51)
		acc ^= acc >> 7
		acc += uint64(popcount(acc))
	}
	return float64(acc % 1000)
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func nativeNsqrt(n int) float64 {
	acc := 0.0
	x := 2.0
	for i := 0; i < n; i++ {
		// Newton iteration for sqrt(x)
		g := x / 2
		for j := 0; j < 4; j++ {
			g = (g + x/g) / 2
		}
		acc += g
		x += 1.0
	}
	return acc
}

func nativeQsort(n int) float64 {
	size := 1024
	data := make([]int, size)
	var acc int
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		seed := uint64(r)*2862933555777941757 + 3037000493
		for i := range data {
			seed = seed*6364136223846793005 + 1442695040888963407
			data[i] = int(seed >> 33)
		}
		sort.Ints(data)
		acc += data[size/2]
	}
	return float64(acc % 1000)
}

func nativeBsearch(n int) float64 {
	size := 4096
	data := make([]int, size)
	for i := range data {
		data[i] = i * 3
	}
	found := 0
	seed := uint64(12345)
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		target := int(seed>>33) % (size * 3)
		idx := sort.SearchInts(data, target)
		if idx < size && data[idx] == target {
			found++
		}
	}
	return float64(found)
}

func nativeStateMachine(n int) float64 {
	state := 0
	seed := uint64(99)
	transitions := 0
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		input := int(seed>>60) & 7
		switch state {
		case 0:
			if input < 3 {
				state = 1
			} else if input < 6 {
				state = 2
			} else {
				state = 3
			}
		case 1:
			if input%2 == 0 {
				state = 2
			} else {
				state = 0
			}
		case 2:
			if input > 4 {
				state = 3
			} else {
				state = 1
			}
		default:
			state = input % 3
		}
		transitions += state
	}
	return float64(transitions % 1000)
}

func nativeStream(n int) float64 {
	size := 1 << 14
	a := make([]float64, size)
	b := make([]float64, size)
	for i := range a {
		a[i] = float64(i)
	}
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		copy(b, a)
		for i := range a {
			a[i] = b[i] + 1
		}
	}
	return a[size-1]
}

func nativeMemcpy(n int) float64 {
	size := 1 << 14
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		copy(dst, src)
		src[r%size]++
	}
	return float64(dst[size-1])
}

func nativeTriad(n int) float64 {
	size := 1 << 13
	a := make([]float64, size)
	b := make([]float64, size)
	c := make([]float64, size)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(size - i)
	}
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		s := float64(r + 1)
		for i := range a {
			a[i] = b[i] + float64(s*c[i])
		}
	}
	return a[0] + a[size-1]
}

func nativePtrChase(n int) float64 {
	size := 1 << 15
	next := make([]int32, size)
	// Sattolo shuffle to build one long cycle.
	seed := uint64(7)
	perm := make([]int32, size)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := size - 1; i > 0; i-- {
		seed = seed*6364136223846793005 + 1442695040888963407
		j := int(seed>>33) % i
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < size-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[size-1]] = perm[0]
	p := int32(0)
	for i := 0; i < n; i++ {
		p = next[p]
	}
	return float64(p)
}

func nativeCacheThrash(n int) float64 {
	size := 1 << 16
	data := make([]int64, size)
	seed := uint64(3)
	var acc int64
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		idx := int(seed>>33) % size
		data[idx] += int64(i)
		acc += data[(idx*7)%size]
	}
	return float64(acc % 1000)
}

func nativeSyscall(n int) float64 {
	acc := 0
	for i := 0; i < n; i++ {
		acc += os.Getpid() & 0xFF
	}
	return float64(acc % 1000)
}

func nativeCtxSwitch(n int) float64 {
	// Channel ping-pong between two goroutines forces scheduler switches.
	ping := make(chan int)
	pong := make(chan int)
	done := make(chan struct{})
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(done)
	}()
	acc := 0
	rounds := n / 64
	if rounds == 0 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		ping <- i
		acc += <-pong
	}
	close(ping)
	<-done
	return float64(acc % 1000)
}

func nativeMatmul(n int) float64 {
	dim := 32
	a := make([]float64, dim*dim)
	b := make([]float64, dim*dim)
	c := make([]float64, dim*dim)
	for i := range a {
		a[i] = float64(i % 7)
		b[i] = float64(i % 5)
	}
	rounds := n/(dim*dim*dim) + 1
	for r := 0; r < rounds; r++ {
		for i := 0; i < dim; i++ {
			for k := 0; k < dim; k++ {
				aik := a[i*dim+k]
				for j := 0; j < dim; j++ {
					c[i*dim+j] += float64(aik * b[k*dim+j])
				}
			}
		}
	}
	return c[0]
}

func nativeSaxpy(n int) float64 {
	size := 1 << 13
	x := make([]float64, size)
	y := make([]float64, size)
	for i := range x {
		x[i] = float64(i)
	}
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		alpha := float64(r+1) * 0.5
		for i := range y {
			y[i] += float64(alpha * x[i])
		}
	}
	return y[size-1]
}

func nativeDot(n int) float64 {
	size := 1 << 13
	x := make([]float64, size)
	y := make([]float64, size)
	for i := range x {
		x[i] = float64(i % 9)
		y[i] = float64(i % 11)
	}
	acc := 0.0
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		dot := 0.0
		for i := range x {
			dot += float64(x[i] * y[i])
		}
		acc += dot
	}
	return acc
}

func nativeHashmap(n int) float64 {
	m := make(map[uint64]int, 1024)
	seed := uint64(11)
	acc := 0
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		k := seed >> 40
		m[k] = i
		if v, ok := m[(k*3)&0xFFFFFF]; ok {
			acc += v
		}
		if len(m) > 4096 {
			m = make(map[uint64]int, 1024)
		}
	}
	return float64(acc % 1000)
}

func nativeStrSearch(n int) float64 {
	haystack := strings.Repeat("abcdefgh", 512) + "needle" + strings.Repeat("xyz", 128)
	found := 0
	for i := 0; i < n; i++ {
		if strings.Contains(haystack[i%64:], "needle") {
			found++
		}
	}
	return float64(found)
}

type treeNode struct {
	key         int
	left, right *treeNode
}

func nativeTreeInsert(n int) float64 {
	var root *treeNode
	seed := uint64(17)
	depthSum := 0
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		key := int(seed >> 40)
		depth := 0
		pp := &root
		for *pp != nil {
			depth++
			if key < (*pp).key {
				pp = &(*pp).left
			} else {
				pp = &(*pp).right
			}
			if depth > 40 {
				break
			}
		}
		if *pp == nil {
			*pp = &treeNode{key: key}
		}
		depthSum += depth
		if i%8192 == 8191 {
			root = nil // reset to bound memory
		}
	}
	return float64(depthSum % 1000)
}

func nativeCompress(n int) float64 {
	// Run-length-encode a synthetic buffer repeatedly.
	size := 1 << 12
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte((i / 7) % 251)
	}
	outLen := 0
	rounds := n/size + 1
	for r := 0; r < rounds; r++ {
		runs := 0
		prev := byte(0)
		for _, b := range buf {
			if b != prev {
				runs++
				prev = b
			}
		}
		outLen += runs
		buf[r%size] ^= 0xA5
	}
	return float64(outLen % 1000)
}
