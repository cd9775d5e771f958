"""Compare loss-term combinations on the synthetic blob benchmark.

Trains three variants of the hash head (both losses, center loss only,
quantization loss only) on identical data and prints their mAP side by
side.
"""

import argparse

from centerhash import centers, model, retrieval, synthetic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=8)
    ap.add_argument("--per-class", type=int, default=100)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--spread", type=float, default=0.1)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    train = synthetic.make_synthetic_blobs(
        args.classes, args.per_class, args.dim, args.spread, args.seed, split="train"
    )
    query = synthetic.make_synthetic_blobs(
        args.classes, max(1, args.per_class // 10), args.dim, args.spread, args.seed, split="query"
    )
    cs = centers.generate_centers(args.classes, args.k, args.seed)
    smap = centers.assign_multi_label(cs, train.labels, args.seed)

    variants = [
        ("center + quantization", True, True),
        ("center only", True, False),
        ("quantization only", False, True),
    ]
    print(f"{'variant':<24} {'mAP':>8} {'P@H=2':>8}")
    for name, use_lc, use_lq in variants:
        cfg = model.TrainConfig(
            seed=args.seed, epochs=args.epochs, use_lc=use_lc, use_lq=use_lq
        )
        net, _ = model.train(train.features, smap.vectors, cfg)
        index = retrieval.CodeIndex(codes=model.encode(net, train.features), labels=train.labels)
        q_words = model.encode(net, query.features)
        report = retrieval.evaluate(index, q_words, query.labels, args.per_class)
        print(f"{name:<24} {report.map_at_n:>8.4f} {report.p_at_h2:>8.4f}")


if __name__ == "__main__":
    main()
