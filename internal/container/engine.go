package container

import (
	"fmt"
	"strings"
)

// ExecContext is what a command handler ("binary") sees inside a
// container: a mutable view of the filesystem, the environment, its
// arguments and an output buffer.
type ExecContext struct {
	FS     map[string][]byte
	Env    map[string]string
	Args   []string
	Dir    string
	stdout strings.Builder
}

// Printf writes to the container's stdout.
func (c *ExecContext) Printf(format string, args ...any) {
	fmt.Fprintf(&c.stdout, format, args...)
}

// Path resolves a possibly relative path against the working directory.
func (c *ExecContext) Path(p string) string {
	if strings.HasPrefix(p, "/") {
		return strings.TrimPrefix(p, "/")
	}
	if c.Dir == "" || c.Dir == "/" {
		return p
	}
	return strings.TrimPrefix(c.Dir, "/") + "/" + p
}

// CommandFunc is a registered in-container binary.
type CommandFunc func(*ExecContext) error

// Engine builds and runs containers. The command table plays the role of
// the binaries a real image would carry.
type Engine struct {
	registry *Registry
	commands map[string]CommandFunc
}

// NewEngine creates an engine bound to a registry, with a set of basic
// "coreutils" preinstalled (echo, touch, cp, rm, mkdir-p no-op, cat).
func NewEngine(reg *Registry) *Engine {
	e := &Engine{registry: reg, commands: make(map[string]CommandFunc)}
	e.RegisterCommand("echo", func(c *ExecContext) error {
		c.Printf("%s\n", strings.Join(c.Args, " "))
		return nil
	})
	e.RegisterCommand("touch", func(c *ExecContext) error {
		for _, a := range c.Args {
			p := c.Path(a)
			if _, ok := c.FS[p]; !ok {
				c.FS[p] = []byte{}
			}
		}
		return nil
	})
	e.RegisterCommand("cp", func(c *ExecContext) error {
		if len(c.Args) != 2 {
			return fmt.Errorf("cp: want 2 args, got %d", len(c.Args))
		}
		src, ok := c.FS[c.Path(c.Args[0])]
		if !ok {
			return fmt.Errorf("cp: %s: no such file", c.Args[0])
		}
		c.FS[c.Path(c.Args[1])] = append([]byte(nil), src...)
		return nil
	})
	e.RegisterCommand("rm", func(c *ExecContext) error {
		for _, a := range c.Args {
			p := c.Path(a)
			if _, ok := c.FS[p]; !ok {
				return fmt.Errorf("rm: %s: no such file", a)
			}
			delete(c.FS, p)
		}
		return nil
	})
	e.RegisterCommand("cat", func(c *ExecContext) error {
		for _, a := range c.Args {
			content, ok := c.FS[c.Path(a)]
			if !ok {
				return fmt.Errorf("cat: %s: no such file", a)
			}
			c.stdout.Write(content)
		}
		return nil
	})
	e.RegisterCommand("true", func(*ExecContext) error { return nil })
	e.RegisterCommand("false", func(*ExecContext) error { return fmt.Errorf("false: exit 1") })
	return e
}

// RegisterCommand installs a named binary into the engine.
func (e *Engine) RegisterCommand(name string, fn CommandFunc) {
	e.commands[name] = fn
}

// Container is one running (or exited) instance of an image.
type Container struct {
	ID      string
	Image   *Image
	fs      map[string][]byte // mutable upper layer union
	env     map[string]string
	workdir string
	logs    strings.Builder
	exited  bool
}

// Run instantiates an image and executes the given command (or the image
// default). The returned container holds logs and the mutated upper
// filesystem; the image itself is never modified.
func (e *Engine) Run(imageRef string, cmd ...string) (*Container, error) {
	img, err := e.registry.Pull(imageRef)
	if err != nil {
		return nil, err
	}
	return e.RunImage(img, cmd...)
}

// RunImage is Run for an image object not in the registry.
func (e *Engine) RunImage(img *Image, cmd ...string) (*Container, error) {
	if len(cmd) == 0 {
		cmd = img.Cmd
	}
	if len(cmd) == 0 {
		return nil, fmt.Errorf("container: image %s has no command", img.Ref())
	}
	ctr := &Container{
		ID:      img.ID()[:12] + "-run",
		Image:   img,
		fs:      img.RootFS(),
		env:     map[string]string{},
		workdir: img.Workdir,
	}
	for k, v := range img.Env {
		ctr.env[k] = v
	}
	if err := e.exec(ctr, cmd); err != nil {
		ctr.exited = true
		return ctr, err
	}
	ctr.exited = true
	return ctr, nil
}

func (e *Engine) exec(ctr *Container, cmd []string) error {
	name := cmd[0]
	fn, ok := e.commands[name]
	if !ok {
		return fmt.Errorf("container: %s: command not found (is the binary in the image's command table?)", name)
	}
	ctx := &ExecContext{FS: ctr.fs, Env: ctr.env, Args: cmd[1:], Dir: ctr.workdir}
	err := fn(ctx)
	ctr.logs.WriteString(ctx.stdout.String())
	return err
}

// Logs returns everything the container wrote to stdout.
func (ctr *Container) Logs() string { return ctr.logs.String() }

// ReadFile reads from the container's (possibly mutated) filesystem.
func (ctr *Container) ReadFile(path string) ([]byte, error) {
	p := strings.TrimPrefix(path, "/")
	content, ok := ctr.fs[p]
	if !ok {
		return nil, fmt.Errorf("container: %s: no such file", path)
	}
	return content, nil
}

// Commit captures the container's changes relative to its image as a new
// image layer — the only way container-side changes persist (immutable
// infrastructure).
func (ctr *Container) Commit(name, tag string) *Image {
	base := ctr.Image.RootFS()
	delta := NewLayer()
	for p, c := range ctr.fs {
		if old, ok := base[p]; !ok || string(old) != string(c) {
			delta.Files[p] = c
		}
	}
	for p := range base {
		if _, ok := ctr.fs[p]; !ok {
			delta.Files[p] = nil // whiteout
		}
	}
	img := ctr.Image.clone()
	img.Name, img.Tag = name, tag
	img.Layers = append(img.Layers, delta)
	return img
}
