import importlib.util
import pathlib
import sys
import xml.etree.ElementTree as ET

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name, monkeypatch):
    """Import scripts/<name>.py as a module, keeping sys.path as it was."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_renderings_writes_three_svgs(monkeypatch, tmp_path, capsys):
    demo = load_script("demo_renderings", monkeypatch)
    out = tmp_path / "demo_out"
    monkeypatch.setattr(demo, "OUT", out)
    demo.main()
    assert str(out) in capsys.readouterr().out
    shapes = {}
    for name in ("five.svg", "shift_t1.svg", "pentagon.svg"):
        root = ET.parse(out / name).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        shapes[name] = [el.tag.rsplit("}", 1)[1] for el in root]
    assert shapes["five.svg"].count("polyline") == 5
    assert shapes["shift_t1.svg"].count("rect") == 1    # the window band
    # five points and the ten lines through their pairs
    assert shapes["pentagon.svg"].count("circle") == 5
    assert shapes["pentagon.svg"].count("line") == 10


def test_regenerate_search_goldens_writes_the_goldens(monkeypatch, tmp_path,
                                                      capsys):
    regen = load_script("regenerate_search_goldens", monkeypatch)
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    regen.main()
    assert str(tmp_path) in capsys.readouterr().out
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    for n in range(2, 8):
        name = f"search_n{n}.txt"
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()
