"""Assembling the global case graph.

The graph has two node populations — cases and charges (causes of action from
a fixed lexicon) — and three edge types:

  * case-case:     each case links to its BM25 top-K lexical neighbours
                   (symmetrized, so degree can exceed K);
  * case-charge:   a case links to every charge whose normalized name appears
                   verbatim in its normalized text;
  * charge-charge: two charges link when the cosine of their embeddings
                   strictly exceeds a threshold delta.

Run with:  python3 demos/02_build_case_graph.py
"""

import numpy as np

from caselink.bm25 import build_index
from caselink.corpus import CaseDocument, ChargeEntry, CorpusStore, Role
from caselink.embeddings import EmbeddingTable
from caselink.graph import build_global_case_graph


def main() -> None:
    store = CorpusStore(
        cases=tuple(CaseDocument.from_text(cid, text, role) for cid, text, role in (
            ("q0", "armed robbery of a bank vault with a getaway car", Role.QUERY),
            ("c0", "armed robbery of a jewellery vault; getaway driver convicted", Role.CANDIDATE),
            ("c1", "money laundering through a chain of shell companies", Role.CANDIDATE),
            ("c2", "tax evasion and money laundering by a shell company", Role.CANDIDATE),
        )),
        charges=(
            ChargeEntry(id="ch-rob", name="Armed Robbery"),
            ChargeEntry(id="ch-ml", name="Money Laundering"),
            ChargeEntry(id="ch-tax", name="Tax Evasion"),
        ),
        labels={},
    )

    # Any embedding source works as long as every node id is covered; here we
    # hand-pick vectors so that the two financial-crime charges are nearly
    # parallel (cosine ~0.98) while robbery points elsewhere.
    table = EmbeddingTable(
        dim=3,
        vectors={
            "q0": np.array([1.0, 0.0, 0.0]),
            "c0": np.array([0.9, 0.1, 0.0]),
            "c1": np.array([0.0, 1.0, 0.0]),
            "c2": np.array([0.1, 0.9, 0.0]),
            "ch-rob": np.array([1.0, 0.0, 0.0]),
            "ch-ml": np.array([0.0, 1.0, 0.2]),
            "ch-tax": np.array([0.0, 1.0, 0.0]),
        },
    )

    graph = build_global_case_graph(store, table, build_index(store), k=1, delta=0.9)
    print(f"graph over {graph.n_cases} cases + {graph.n_charges} charges")
    print(f"node order: {graph.node_ids}\n")

    dense = graph.adjacency.toarray()
    names = graph.node_ids
    print("adjacency (symmetric, binary, zero diagonal):")
    header = "        " + " ".join(f"{n:>6s}" for n in names)
    print(header)
    for i, row in enumerate(dense):
        print(f"  {names[i]:>6s} " + " ".join(f"{v:>6d}" for v in row))

    print("\nedges by type:")
    n = graph.n_cases
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if not dense[i, j]:
                continue
            kind = (
                "case-case"
                if j < n
                else ("case-charge" if i < n else "charge-charge")
            )
            print(f"  {names[i]:>6s} -- {names[j]:<6s} ({kind})")

    print(
        "\nNote the charge node acting as a bridge: c1 and c2 share no strong "
        "lexical link to the robbery cluster, but 'money laundering' ties them "
        "together, and the near-parallel charge vectors add ch-ml -- ch-tax."
    )
    print(
        f"\nfeature matrix carried on the nodes: {graph.features.shape} "
        "(one embedding row per node, in node order)"
    )


if __name__ == "__main__":
    main()
