"""Bundled classical datasets.

mathmarks.csv: examination marks of 88 students in five subjects
(mechanics, vectors, algebra, analysis, statistics), all on a 0-100 scale;
a classical multivariate dataset from Mardia, Kent & Bibby, "Multivariate
Analysis" (1979), Table 1.2.1, widely redistributed (e.g. R package gRbase
as `mathmark`). Columns are ordered {mechanics, vectors, algebra, analysis,
statistics}, which is a perfect elimination ordering of the bundled
neighborhood graph mathmarks_graph.json (open/closed-book structure of
Whittaker, 1990).

carcass.csv (optional drop-in, not redistributed here): 344 slaughter-pig
measurements of fat and meat layer thickness plus lean meat percentage,
from Busk et al. (1999), distributed in the R package gRbase as `carcass`.
Export it with `write.csv(gRbase::carcass, "carcass.csv", row.names=FALSE)`
and place it in this directory (or pass it to the CLI directly) with the
columns reordered to {Meat12, Meat13, Meat11, LeanMeat, Fat13, Fat11,
Fat12}, together with a decomposable neighborhood graph carcass_graph.json
on that ordering.

Both are read by `sgdg.cli.read_dataset`, with the checks of `sgdg fit --data`.
"""

from importlib import resources

from ..cli import read_dataset
from ..graph import Graph

CARCASS_COLUMN_ORDER = ("Meat12", "Meat13", "Meat11", "LeanMeat", "Fat13", "Fat11", "Fat12")


def _data_path(name):
    return resources.files(__package__) / name


def load_mathmarks():
    """(88, 5) marks matrix and its column names."""
    return read_dataset(_data_path("mathmarks.csv"))


def mathmarks_graph():
    """Neighborhood graph of the marks data; labels are already a PEO."""
    return Graph.load(_data_path("mathmarks_graph.json"))


def has_carcass():
    return _data_path("carcass.csv").is_file() and _data_path("carcass_graph.json").is_file()


def load_carcass():
    """(344, 7) carcass matrix and column names; requires the drop-in file."""
    path = _data_path("carcass.csv")
    if not path.is_file():
        raise FileNotFoundError(
            "carcass.csv is not bundled (not redistributable from this build "
            "environment); see the sgdg.datasets docstring for how to obtain it"
        )
    data, header = read_dataset(path)
    if tuple(header) != CARCASS_COLUMN_ORDER:
        order = [header.index(c) for c in CARCASS_COLUMN_ORDER]
        data = data[:, order]
        header = list(CARCASS_COLUMN_ORDER)
    return data, header


def carcass_graph():
    path = _data_path("carcass_graph.json")
    if not path.is_file():
        raise FileNotFoundError(
            "carcass_graph.json is not bundled; supply a decomposable "
            "neighborhood graph on the column order "
            f"{CARCASS_COLUMN_ORDER}"
        )
    return Graph.load(path)
