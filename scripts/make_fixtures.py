"""Regenerate the bundled complex fixtures with seed-fixed coordinates."""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from pachner33 import complexes as cx
from pachner33.flatmetric import random_realization
from pachner33.io import ComplexDocument, save_document

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "pachner33" / "fixtures"


def emit(name, complex_, seed, description):
    coords = random_realization(complex_, seed=seed)
    doc = ComplexDocument(
        simplices=complex_.vertex_ids[complex_.simplex_vertices].tolist(),
        metadata={"name": name, "description": description, "coords_seed": str(seed)},
    ).with_coords(coords)
    path = FIXTURE_DIR / f"{name}.json"
    save_document(doc, path)
    print("wrote", path)


def main():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    emit(
        "boundary_delta5",
        cx.boundary_delta5(),
        seed=1,
        description="boundary of the 5-simplex: 6 four-simplices on vertices 0..5",
    )
    emit(
        "join_tetra_triangle",
        cx.tetra_circle_join(),
        seed=5,
        description="join of the tetrahedron boundary 0..3 with the 3-cycle 4,5,6",
    )
    emit(
        "bipyramid_10cell",
        cx.bipyramid_sphere(),
        seed=2,
        description="two 5-simplex boundaries glued along a facet, apexes 0 and 6",
    )


if __name__ == "__main__":
    main()
