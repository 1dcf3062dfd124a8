"""punchplan: sheet-metal process parameters from STEP / B-Rep part models.

The package root exposes the loaders and the two pipeline entry points;
everything else is reached through its submodule (``punchplan.brep``,
``punchplan.features``, ``punchplan.classify``, ``punchplan.process``,
``punchplan.resources``, ``punchplan.step``, ``punchplan.cli``).
``load_step`` imports the Part-21 reader on first access, so a process that
reads only JSON models never compiles it.
"""

from .brep import load_brep_json
from .report import analyze_solid, report_document

__version__ = "0.1.0"

__all__ = ["load_brep_json", "load_step", "analyze_solid", "report_document", "__version__"]


def __getattr__(name: str):
    if name == "load_step":
        from .step import load_step
        return load_step
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
