"""Every defaulted parameter and dataclass field in ``src/plumbric`` is listed here.

The test walks the syntax tree of each ``src/plumbric/*.py`` file and collects
every function or lambda parameter that has a default and every dataclass
field that has one, as ``module.qualname.name``.  That list must be exactly
:data:`KNOBS`, whose entries each give the reason the default exists.  A
tolerance, size or convention that every caller leaves at one value belongs
in a module constant, not in a signature: a new default fails this test until
it is removed or listed with its reason.
"""

import ast
import pathlib

import plumbric

PACKAGE_DIR = pathlib.Path(plumbric.__file__).parent

KNOBS = {
    "cli._load_config.grid": "None leaves the file's grid: verify takes no --grid and "
                             "construct's is optional",
    "cli._load_config.tol": "None leaves the file's tolerance: --tol is optional",
    "cli.main.argv": "None reads sys.argv (the console script); tests pass a list",
    "oracle.GraphHypersurface.normal_sign": "two values in use: the taper's inward -1, "
                                            "the tests' graphs +1",
    "pipeline.NiceCoordinateSpec.provenance": "two values in use: provenance is initial "
                                              "or derived",
    "pipeline.ConstructionCertificate.wall_time_s": "None marks a certificate without "
                                                    "timing: verify's, which is "
                                                    "byte-deterministic",
    "pipeline.run_construction.config": "None is DEFAULT_CONFIG, the config's one source",
    "pipeline.run_construction.root": "two values in use: the CLI passes the config's "
                                      "root, library callers start at vertex 0",
    "pipeline.run_construction.out_dir": "None writes no artifacts (library calls); the "
                                         "CLI and the benchmark pass a directory",
    "pipeline.verify_samples.config": "None is DEFAULT_CONFIG, the config's one source",
    "pipeline.verify.config": "None is DEFAULT_CONFIG, the config's one source",
    "plumbing.PlumbingVertex.framing_q": "optional key of a tree document: from_json "
                                         "passes only the keys the document has",
    "plumbing.PlumbingVertex.char_label": "optional key of a tree document",
    "plumbing.PlumbingVertex.trivial": "optional key of a tree document",
    "plumbing.PlumbingTree.equivariant": "optional key of a tree document",
    "plumbing.tangent_chain.equivariant": "two values in use: equivariant chains for topo "
                                          "and eta, plain ones for construct",
    "profiles.LeftParams.a3": "two values in use: the search's A3, verify's stored a3",
    "profiles.check_record.detail": "two records (boundary Ricci, gluing) carry no detail",
    "profiles.InfeasibleProfileError.__init__.diagnostics": "None where a run-out window "
                                                            "check raises it; the search "
                                                            "passes its gate counts",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def _defaulted(node, prefix: str) -> list:
    """``prefix + qualname.name`` of every defaulted parameter and dataclass
    field defined under ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            args = child.args
            positional = args.posonlyargs + args.args
            found += [f"{name}.{a.arg}"
                      for a in positional[len(positional) - len(args.defaults):]]
            found += [f"{name}.{a.arg}"
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += _defaulted(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                found += [f"{name}.{st.target.id}" for st in child.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None]
            found += _defaulted(child, name + ".")
        else:
            found += _defaulted(child, prefix)
    return found


def test_every_default_is_listed():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += _defaulted(ast.parse(path.read_text()), path.stem + ".")
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(KNOBS)


def test_the_census_sees_each_kind_of_default():
    source = ("def f(a, b=1, *, c, d=2): pass\n"
              "g = lambda x, y=0: x\n"
              "@dataclass(frozen=True)\nclass R:\n    u: int\n    v: int = 0\n"
              "    def m(self, w=None): pass\n"
              "class S:\n    z: int = 0\n")
    assert sorted(_defaulted(ast.parse(source), "m.")) == [
        "m.<lambda>.y", "m.R.m.w", "m.R.v", "m.f.b", "m.f.d"]
