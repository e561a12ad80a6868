"""May-alias analysis over rooted object diagrams.

The package is layered: ``diagram`` holds the graph model and its
operations, ``lang`` parses and checks the input language, ``calculus``
runs the per-instruction analysis rules, ``query`` answers alias
questions and renders reports, ``cli`` wires it all to a command line.
"""

from aliasgraph.calculus import AnalysisConfig, AnalysisError, Engine, analyze_program
from aliasgraph.diagram import AliasDiagram, Label
from aliasgraph.lang import Diagnostic, ParseError, parse_program, resolve

__all__ = [
    "AliasDiagram",
    "AnalysisConfig",
    "AnalysisError",
    "Diagnostic",
    "Engine",
    "Label",
    "ParseError",
    "analyze_program",
    "parse_program",
    "resolve",
]
